package proto

import (
	"strconv"

	"tsp/internal/telemetry"
)

// The command table. Everything that is a constant of a command — how
// each protocol spells it, what arguments it takes, whether it writes
// (and may therefore carry a durability tier and a seq= tag), what its
// reply looks like, how the server schedules it against a pipelined
// burst's commit plan, how the cluster proxy routes it, what telemetry
// calls it — is one row of Specs, and every layer reads the row: both
// adapters' parsers and AppendRequests, ReadNativeReply, the cache
// server's batch loop and reply shaping, the slot check, the proxy's
// classifier. Adding a command is one row plus the arm that executes it.

// NumCmds bounds the Cmd enum; Specs holds one row per value.
const NumCmds = int(CmdBad) + 1

// The argument kinds, one letter of Spec.Args each.
const (
	// ArgHash is a key or a value: the native grammar wants an unsigned
	// decimal, RESP uses a decimal verbatim and hashes any other text.
	ArgHash = 'h'
	// ArgInt is a number in both grammars — a delta, a range bound, a
	// limit, a slot: there is nothing sensible to hash.
	ArgInt = 'i'
	// ArgID is an ArgHash that must not come out zero (a session id;
	// zero means "no session").
	ArgID = 'n'
	// ArgAddr is a node address, kept as text in Request.Addr: addresses
	// are routed, not stored.
	ArgAddr = 'a'
)

// Keyspace names the engine a data command addresses.
type Keyspace uint8

// The keyspaces.
const (
	// SpaceHash is the hash map.
	SpaceHash Keyspace = iota
	// SpaceOrdered is the persistent skip list (the z* commands).
	SpaceOrdered
)

// Verb is what a data command does to its keyspace; together with the
// keyspace and the key stride it determines the ops that execute it.
type Verb uint8

// The verbs. VerbSet, VerbIncr and VerbDelete write.
const (
	// VerbNone marks a row that is not a data command.
	VerbNone Verb = iota
	// VerbRead reads each key.
	VerbRead
	// VerbSet stores each key's value.
	VerbSet
	// VerbIncr adds a delta to the key.
	VerbIncr
	// VerbDelete removes each key.
	VerbDelete
	// VerbRange scans [KV[0], KV[1]), capped at KV[2] when present.
	VerbRange
	// VerbCount counts the keys in [KV[0], KV[1]).
	VerbCount
	// NumVerbs bounds the enum.
	NumVerbs
)

// Plan is a command's place in a pipelined burst's commit plan — the
// one decision the server's batch loop makes per request. Every class
// but PlanJoin is a sequence point: the pending plan executes first.
type Plan uint8

// The plan classes. The zero value suits every admin command.
const (
	// PlanReleased is a sequence point served with the cluster slot
	// gate released: a crash, a parked wait or a migrate's ownership
	// flip must not hold (or wait behind) the gate.
	PlanReleased Plan = iota
	// PlanHeld is a sequence point served under the slot gate.
	PlanHeld
	// PlanJoin joins the burst's plan (a relaxed/fire write, or a
	// seq-tagged one that spans shards, still makes itself a sequence
	// point — that depends on the request, not on the command).
	PlanJoin
	// PlanRead is an ordered-keyspace read: it runs lock-free off the
	// skip list once the pending plan has landed, so a pipelined
	// zadd→zrange sees its own write.
	PlanRead
	// PlanClose closes the connection after its reply; later requests
	// of the burst are not served.
	PlanClose
)

// Route is how the cluster proxy routes a command.
type Route uint8

// The routing classes.
const (
	// RouteRefused commands only make sense addressed to one node.
	RouteRefused Route = iota
	// RouteLocal commands are answered by the proxy itself.
	RouteLocal
	// RouteKeyed commands forward whole to the owner of KV[0]'s slot.
	RouteKeyed
	// RouteSlot commands forward whole to the owner of slot KV[0].
	RouteSlot
	// RouteSplit commands split per owner, Stride arguments per key,
	// and the legs' replies merge by Spec.Merge.
	RouteSplit
	// RouteBroadcast commands go to every node and merge by Spec.Merge.
	RouteBroadcast
)

// Merge is how a fanned-out command's per-node replies combine.
type Merge uint8

// The merge kinds.
const (
	// MergeNone marks a command that never fans out.
	MergeNone Merge = iota
	// MergeKeys reassembles per-key Items in request key order.
	MergeKeys
	// MergeSum adds the legs' counts.
	MergeSum
	// MergeMin takes the smallest value (the conservative barrier
	// receipt).
	MergeMin
	// MergeSorted k-way merges ordered Items by key, up to the limit.
	MergeSorted
)

// Spec is one command's row.
type Spec struct {
	// Native and RESP are the command's spellings, lowercase; "" means
	// the protocol does not define it. Command words match ignoring
	// case; RESP's is sent (and documented) in uppercase.
	Native, RESP string

	// Args is the fixed argument list, one kind letter per argument,
	// of which the last Opt may be omitted. With Args empty and Stride
	// nonzero the command is variadic instead: any positive number of
	// Stride-sized groups.
	Args string
	Opt  int

	// Stride is the distance between successive keys in Request.KV: 1
	// for key lists, 2 for key/value (or key/delta) pairs, 0 for a
	// command that addresses no key.
	Stride int

	// Word is an optional literal the native grammar accepts after the
	// arguments; Lax means it ignores any trailing tokens. (RESP ignores
	// them on every argument-less command, as redis's PING does.)
	Word string
	Lax  bool

	// Usage, BadArg and BadOpt are the native error texts: wrong
	// argument count, a malformed argument, a malformed optional
	// argument. A row without a Usage has no argument grammar to
	// explain, and trailing junk makes the line an unknown command.
	Usage, BadArg, BadOpt string

	// Space and Verb say what a data command executes.
	Space Keyspace
	Verb  Verb

	// Reply is the kind of the command's success reply (reads may also
	// answer KNotFound); Block marks a KRaw reply that runs over several
	// lines closed by END rather than one.
	Reply Kind
	Block bool

	// Plan, Route and Merge are the scheduling and routing classes.
	Plan  Plan
	Route Route
	Merge Merge

	// Tel is the latency-histogram label, meaningful on data commands
	// and wait.
	Tel telemetry.Command
}

// Mutates reports whether the command writes — which is also exactly
// when it accepts a trailing durability tier and seq=<n> tag.
func (sp *Spec) Mutates() bool {
	return sp.Verb == VerbSet || sp.Verb == VerbIncr || sp.Verb == VerbDelete
}

// variadic reports whether the command takes a key (or pair) list.
func (sp *Spec) variadic() bool { return sp.Args == "" && sp.Stride > 0 }

// Specs is the command table, hottest commands first: looking a command
// word up is a scan in this order.
var Specs = [NumCmds]Spec{
	CmdGet: {Native: "get", RESP: "get", Args: "h", Stride: 1,
		Usage: "usage: get <key>", BadArg: "bad key",
		Verb: VerbRead, Reply: KValue, Plan: PlanJoin, Route: RouteKeyed, Tel: telemetry.CmdGet},
	CmdSet: {Native: "set", RESP: "set", Args: "hh", Stride: 2,
		Usage: "usage: set <key> <value>", BadArg: "keys and values are unsigned integers",
		Verb: VerbSet, Reply: KStored, Plan: PlanJoin, Route: RouteKeyed, Tel: telemetry.CmdSet},
	CmdIncr: {Native: "incr", RESP: "incrby", Args: "hi", Stride: 2,
		Usage: "usage: incr <key> <delta>", BadArg: "bad arguments",
		Verb: VerbIncr, Reply: KInt, Plan: PlanJoin, Route: RouteKeyed, Tel: telemetry.CmdIncr},
	CmdDelete: {Native: "delete", RESP: "del", Stride: 1,
		Usage: "usage: delete <key> ...",
		Verb:  VerbDelete, Reply: KDelete, Plan: PlanJoin, Route: RouteSplit, Merge: MergeKeys, Tel: telemetry.CmdDelete},
	CmdMGet: {Native: "mget", RESP: "mget", Stride: 1,
		Usage: "usage: mget <key> ...", BadArg: "bad key",
		Verb: VerbRead, Reply: KMGet, Plan: PlanJoin, Route: RouteSplit, Merge: MergeKeys, Tel: telemetry.CmdMGet},
	CmdMSet: {Native: "mset", RESP: "mset", Stride: 2,
		Usage: "usage: mset <key> <value> ...",
		Verb:  VerbSet, Reply: KStoredN, Plan: PlanJoin, Route: RouteSplit, Merge: MergeSum, Tel: telemetry.CmdMSet},
	CmdZAdd: {Native: "zadd", RESP: "zadd", Args: "hh", Stride: 2,
		Usage: "usage: zadd <key> <value>", BadArg: "keys and values are unsigned integers",
		Space: SpaceOrdered, Verb: VerbSet, Reply: KStored, Plan: PlanJoin, Route: RouteKeyed, Tel: telemetry.CmdZAdd},
	CmdZGet: {Native: "zget", RESP: "zget", Args: "h", Stride: 1,
		Usage: "usage: zget <key>", BadArg: "bad key",
		Space: SpaceOrdered, Verb: VerbRead, Reply: KValue, Plan: PlanRead, Route: RouteKeyed, Tel: telemetry.CmdZGet},
	CmdZIncr: {Native: "zincr", RESP: "zincr", Args: "hi", Stride: 2,
		Usage: "usage: zincr <key> <delta>", BadArg: "bad arguments",
		Space: SpaceOrdered, Verb: VerbIncr, Reply: KInt, Plan: PlanJoin, Route: RouteKeyed, Tel: telemetry.CmdZIncr},
	CmdZDel: {Native: "zdel", RESP: "zdel", Args: "h", Stride: 1,
		Usage: "usage: zdel <key>", BadArg: "bad key",
		Space: SpaceOrdered, Verb: VerbDelete, Reply: KDelete, Plan: PlanJoin, Route: RouteKeyed, Tel: telemetry.CmdZDel},
	CmdZRange: {Native: "zrange", RESP: "zrange", Args: "iii", Opt: 1,
		Usage: "usage: zrange <lo> <hi> [limit]", BadArg: "bad bounds", BadOpt: "bad limit",
		Space: SpaceOrdered, Verb: VerbRange, Reply: KRange, Plan: PlanRead, Route: RouteBroadcast, Merge: MergeSorted, Tel: telemetry.CmdZRange},
	CmdZCount: {Native: "zcount", RESP: "zcount", Args: "ii",
		Usage: "usage: zcount <lo> <hi>", BadArg: "bad bounds",
		Space: SpaceOrdered, Verb: VerbCount, Reply: KInt, Plan: PlanRead, Route: RouteBroadcast, Merge: MergeSum, Tel: telemetry.CmdZCount},

	// stats and crash parse their argument by hand in both adapters (a
	// view word, a signed index), and so does the native wait, whose
	// grammar has a keyword; Args is WAIT's redis-shaped RESP form.
	CmdWait: {Native: "wait", RESP: "wait", Args: "ii", Usage: "usage: wait [epoch [timeout-ms]] | wait repl [timeout-ms]",
		Reply: KInt, Route: RouteBroadcast, Merge: MergeMin, Tel: telemetry.CmdWait},
	CmdSession: {Native: "session", RESP: "session", Args: "n",
		Usage: "usage: session <id>", BadArg: "bad session id (must be an integer >= 1)",
		Reply: KRaw, Plan: PlanHeld, Route: RouteLocal},
	CmdStats:   {Native: "stats", RESP: "stats", Reply: KRaw, Block: true, Route: RouteLocal},
	CmdCrash:   {Native: "crash", RESP: "crash", Usage: "usage: crash [shard]", Reply: KRaw},
	CmdPromote: {Native: "promote", RESP: "promote", Lax: true, Reply: KRaw},
	CmdPing:    {Native: "ping", RESP: "ping", Lax: true, Reply: KPong, Route: RouteLocal},
	CmdInfo:    {RESP: "info", Reply: KRaw, Route: RouteLocal},
	CmdCommand: {RESP: "command", Reply: KEmpty, Route: RouteLocal},
	CmdQuit:    {Native: "quit", RESP: "quit", Reply: KQuit, Plan: PlanClose, Route: RouteLocal},
	CmdCluster: {Native: "cluster", RESP: "cluster", Word: "info", Usage: "usage: cluster [info]", Reply: KRaw, Block: true, Route: RouteLocal},
	CmdMigrate: {Native: "migrate", RESP: "migrate", Args: "ia", Usage: "usage: migrate <slot> <addr>", BadArg: "bad slot", Reply: KRaw, Route: RouteSlot},
	CmdAcceptSlot: {Native: "acceptslot", Args: "i",
		Usage: "usage: acceptslot <slot>", BadArg: "bad slot",
		Reply: KRaw, Plan: PlanHeld},
	CmdBad: {Route: RouteLocal},
}

// alias is a second RESP spelling of a command whose row is in Specs.
type alias struct {
	// word is the command word and sub the subcommand word that must
	// follow it ("" = none); arity is how redis-style arity errors name
	// the spelling.
	word, sub, arity string
	cmd              Cmd
	// args are the argument kinds the spelling carries. Where that is
	// fewer than the row's, fill completes KV.
	args string
	fill uint64
}

// respAliases are the redis-shaped spellings: INCR k is INCRBY k 1, and
// CLIENT SESSION id is the SESSION handshake.
var respAliases = [...]alias{
	{word: "incr", arity: "incr", cmd: CmdIncr, args: "h", fill: 1},
	{word: "client", sub: "session", arity: "client|session", cmd: CmdSession, args: "n"},
}

// Spec returns the command's row (the empty CmdNone row for a value
// outside the enum).
func (c Cmd) Spec() *Spec {
	if int(c) >= NumCmds {
		c = CmdNone
	}
	return &Specs[c]
}

// String returns the command's native spelling (its RESP one when the
// native protocol has none).
func (c Cmd) String() string {
	sp := c.Spec()
	switch {
	case sp.Native != "":
		return sp.Native
	case sp.RESP != "":
		return sp.RESP
	}
	return "cmd(" + strconv.Itoa(int(c)) + ")"
}

// lookupNative returns the command the native grammar spells word, or
// CmdBad.
func lookupNative(word []byte) Cmd {
	for c := CmdGet; c < CmdBad; c++ {
		if name := Specs[c].Native; len(name) == len(word) && eqFold(word, name) {
			return c
		}
	}
	return CmdBad
}

// lookupRESP returns the command RESP spells word (with the alias row,
// when the spelling is one), or CmdBad.
func lookupRESP(word []byte) (Cmd, *alias) {
	if len(word) == 0 {
		return CmdBad, nil // an empty bulk string spells nothing
	}
	for c := CmdGet; c < CmdBad; c++ {
		if name := Specs[c].RESP; len(name) == len(word) && eqFold(word, name) {
			return c, nil
		}
	}
	for i := range respAliases {
		if eqFold(word, respAliases[i].word) {
			return respAliases[i].cmd, &respAliases[i]
		}
	}
	return CmdBad, nil
}
