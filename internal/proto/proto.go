// Package proto is the cache server's wire codec: a typed
// request/reply representation, a pipelined Decoder that drains many
// requests per socket read into one request batch, a staging Encoder
// that answers a whole decoded batch with one batched write, and an
// Adapter seam that keeps the framing/syntax of a concrete protocol
// (the native text protocol, RESP2) out of the server's execution
// path.
//
// The design goal is the same procrastination argument the storage
// stack is built on, applied to the network layer: persistence cost is
// cheapest paid in bulk, and so is protocol cost. A client that
// pipelines N commands into one TCP segment used to be served as N
// scanner iterations, N string dispatches and N small writes; with
// this codec the N commands surface as ONE []Request group, execute as
// ONE enqueue into the shard batch pipeline (bigger flat-combined
// groups, fewer doorbell wakeups), and answer with ONE write. On the
// hot path nothing is converted to a string: keys and values are
// parsed straight from the read buffer into uint64s, and replies are
// appended to a reusable staging buffer with strconv.Append-style
// helpers.
//
// A Request returned by Decoder.Next is valid until the next call to
// Next: its KV slice aliases a per-decoder arena that the next decode
// reuses. Callers that need a request to outlive the batch must copy
// it.
package proto

import (
	"errors"
	"strings"

	"tsp/internal/telemetry"
)

// Cmd identifies a decoded command, independent of which protocol
// carried it.
type Cmd uint8

// The command set. Native text and RESP both map into this one enum;
// commands a protocol does not define simply never decode from it.
const (
	// CmdNone marks a consumed-but-empty input (a blank line); the
	// server skips it without replying.
	CmdNone Cmd = iota
	// CmdGet reads one key: KV[0].
	CmdGet
	// CmdSet stores KV[1] under KV[0].
	CmdSet
	// CmdIncr adds KV[1] to KV[0], creating it at the delta if absent.
	CmdIncr
	// CmdDelete removes each key in KV (native carries exactly one;
	// RESP's DEL accepts several).
	CmdDelete
	// CmdMGet reads every key in KV, preserving request order.
	CmdMGet
	// CmdMSet stores KV[2i+1] under KV[2i] for each pair.
	CmdMSet
	// CmdZAdd stores KV[1] under KV[0] in the ordered keyspace.
	CmdZAdd
	// CmdZGet reads KV[0] from the ordered keyspace.
	CmdZGet
	// CmdZIncr adds KV[1] to KV[0] in the ordered keyspace, creating it
	// at the delta if absent.
	CmdZIncr
	// CmdZDel removes KV[0] from the ordered keyspace.
	CmdZDel
	// CmdZRange scans the ordered keyspace over [KV[0], KV[1]), capped
	// at KV[2] results when len(KV) == 3.
	CmdZRange
	// CmdZCount counts ordered keys in [KV[0], KV[1]).
	CmdZCount
	// CmdWait blocks until durability covers the caller's writes. With
	// Request.WaitRepl false it is an epoch barrier: KV[0] is the target
	// epoch (0 = the epoch current when the wait executes) and KV[1] a
	// timeout in milliseconds (0 = no timeout). With WaitRepl true it is
	// a replication barrier: KV[0] is the follower-ack count required
	// and KV[1] the timeout, RESP WAIT style.
	CmdWait
	// CmdSession binds the connection to client session KV[0] (session
	// ids start at 1). Subsequent mutations tagged seq=<n> are deduped
	// against the session's persistent window (see docs/PROTOCOL.md).
	CmdSession
	// CmdStats requests the telemetry view selected by Request.Stats.
	CmdStats
	// CmdCrash power-fails one shard (Request.HasShard) or all of them.
	CmdCrash
	// CmdPromote severs replication on a follower.
	CmdPromote
	// CmdPing asks for a liveness reply.
	CmdPing
	// CmdInfo asks for the server info text (RESP's INFO).
	CmdInfo
	// CmdCommand is RESP's COMMAND introspection; answered with an
	// empty array so redis-cli connects cleanly.
	CmdCommand
	// CmdQuit closes the connection after any staged replies flush.
	CmdQuit
	// CmdCluster asks for the cluster view: a node reports the slots it
	// owns and its ring epoch, a proxy reports the full slot → owner
	// table.
	CmdCluster
	// CmdMigrate hands slot KV[0] to the node at Request.Addr: the owner
	// streams the slot's snapshot + suffix there, flips ownership, and
	// answers misrouted commands with KMoved from then on.
	CmdMigrate
	// CmdAcceptSlot is the receiving side of a migration: the sender
	// issues it first on a fresh connection, and after the OK reply the
	// connection carries a replication-framed migration stream instead
	// of further commands.
	CmdAcceptSlot
	// CmdBad is a recognized-but-malformed request; Bad/BadMsg carry
	// the error reply the server must answer with.
	CmdBad
)

// Durability is a mutation's requested persistence tier — the
// Montage-style spectrum ROADMAP item 1 exposes per command. The zero
// value is full durability, so protocols that say nothing get today's
// behavior.
type Durability uint8

// The durability tiers, strongest first.
const (
	// DurDurable acknowledges after the write's Atlas critical section
	// committed: the pre-tier behavior, loss bound zero.
	DurDurable Durability = iota
	// DurRelaxed acknowledges on commit to the volatile overlay and
	// persists at the next epoch close: loss bounded by one epoch
	// interval.
	DurRelaxed
	// DurFire acknowledges before commit (fire-and-forget): the reply
	// carries no outcome and the loss bound is DurRelaxed's.
	DurFire
)

// String returns the tier's wire spelling.
func (d Durability) String() string {
	switch d {
	case DurRelaxed:
		return "relaxed"
	case DurFire:
		return "fire"
	default:
		return "durable"
	}
}

// StatsSub selects a stats variant.
type StatsSub uint8

// The stats variants of the native protocol.
const (
	// StatsAggregate is the whole-server merged view.
	StatsAggregate StatsSub = iota
	// StatsShards is the per-shard breakdown.
	StatsShards
	// StatsReset zeroes counters and histograms.
	StatsReset
)

// Reply answers a stats request from the rows of srcs: `stats` and
// `stats shards` render them, then END; `stats reset` zeroes their
// counters and histograms and answers RESET. A server and a proxy answer
// through this one function.
func (v StatsSub) Reply(srcs ...telemetry.Source) Reply {
	var b strings.Builder
	switch v {
	case StatsReset:
		telemetry.Reset(srcs...)
		return Reply{Kind: KRaw, Msg: "RESET"}
	case StatsShards:
		telemetry.ShardText(&b, srcs...)
	default:
		telemetry.Text(&b, srcs...)
	}
	b.WriteString("END")
	return Reply{Kind: KRaw, Msg: b.String()}
}

// Request is one decoded command. It is protocol-neutral: every
// argument is already parsed to its numeric form, so the execution
// path never touches wire bytes or allocates per-command strings.
type Request struct {
	// Cmd is the decoded command.
	Cmd Cmd

	// KV holds the numeric arguments in wire order: keys for
	// Get/MGet/Delete, key/value pairs for Set/MSet, key then delta
	// for Incr. It aliases the decoder's arena and is only valid until
	// the next Decoder.Next call.
	KV []uint64

	// Stats selects the stats variant when Cmd == CmdStats.
	Stats StatsSub

	// Shard is the crash target when Cmd == CmdCrash and HasShard is
	// set; an unparseable target decodes as -1 so the server's
	// range check produces the usual error.
	Shard int

	// HasShard reports whether a crash request named a shard.
	HasShard bool

	// Dur is the durability tier a mutation requested; the zero value
	// (DurDurable) is the pre-tier behavior.
	Dur Durability

	// WaitRepl selects the replication-barrier form of CmdWait (wait
	// for follower acks) over the epoch-barrier form.
	WaitRepl bool

	// Seq is the per-session request sequence number a mutation carried
	// (native trailing `seq=<n>` token, RESP trailing `seq=<n>` bulk);
	// meaningful only when HasSeq is set. Sequence numbers start at 1.
	Seq uint64

	// HasSeq reports whether the request carried a sequence number and
	// therefore wants exactly-once dedup against the connection's
	// session window.
	HasSeq bool

	// Addr is the target address a CmdMigrate names. It is the one
	// argument that stays textual: addresses are routed, not stored.
	Addr string

	// Bad is the error class to answer with when Cmd == CmdBad
	// (KErrClient, KErrServer or KErrProto).
	Bad Kind

	// BadMsg is the error text to answer with when Cmd == CmdBad.
	BadMsg string
}

// Kind classifies a Reply for the adapter that encodes it.
type Kind uint8

// The reply kinds. Each adapter renders every kind in its own wire
// syntax; the server never formats protocol text itself.
const (
	// KNone encodes nothing (a skipped request).
	KNone Kind = iota
	// KStored acknowledges one set.
	KStored
	// KStoredN acknowledges a multi-set of Reply.N pairs.
	KStoredN
	// KValue is a get hit: Reply.Key holds Reply.Val.
	KValue
	// KNotFound is a get miss.
	KNotFound
	// KInt is a bare integer result (incr).
	KInt
	// KDelete reports per-key delete outcomes in Reply.Items.
	KDelete
	// KMGet reports a multi-get's per-key outcomes in Reply.Items.
	KMGet
	// KRange reports a zrange result: the ordered key/value pairs in
	// Reply.Items (every Item Found by construction).
	KRange
	// KRaw is pre-rendered text (stats, info, admin acknowledgements)
	// in Reply.Msg; native emits it verbatim, RESP as one bulk string.
	KRaw
	// KPong answers a ping.
	KPong
	// KEmpty is an empty result set (RESP's COMMAND).
	KEmpty
	// KQuit acknowledges a quit; native stays silent, RESP says +OK.
	KQuit
	// KMoved is a redirect: the slot in Reply.N lives at the node in
	// Reply.Msg ("?" when the new owner is still importing it and the
	// client should simply retry). The request was NOT executed.
	KMoved
	// KErrClient is a malformed-request error (Reply.Msg).
	KErrClient
	// KErrServer is an execution error (Reply.Msg).
	KErrServer
	// KErrProto is a protocol-level error (Reply.Msg).
	KErrProto
)

// Item is one key's outcome inside a multi-key reply.
type Item struct {
	// Key is the key the outcome belongs to.
	Key uint64
	// Val is the value read (meaningful only when Found).
	Val uint64
	// Found reports whether the key existed.
	Found bool
}

// Reply is one typed response. The server fills exactly one Reply per
// Request (KNone for requests that answer nothing) and the connection's
// adapter encodes it.
type Reply struct {
	// Kind selects the encoding.
	Kind Kind
	// Key is the key a KValue reply echoes.
	Key uint64
	// Val is the value of a KValue or KInt reply.
	Val uint64
	// N is the pair count a KStoredN reply reports.
	N int
	// Items carries per-key outcomes for KMGet and KDelete.
	Items []Item
	// Msg carries the text of KRaw and error replies.
	Msg string
	// Epoch, when nonzero, is the epoch a relaxed/fire mutation was
	// acknowledged under (epochs start at 1, so 0 means "no stamp").
	// The native adapter renders it as an " @<epoch>" suffix on
	// KStored/KStoredN/KInt; RESP ignores it for client compatibility.
	Epoch uint64
}

// ResyncState reports how an adapter's Resync attempt went.
type ResyncState uint8

// Resync outcomes.
const (
	// ResyncMore means the junk continues past the buffer; feed more.
	ResyncMore ResyncState = iota
	// ResyncDone means the stream is aligned on a request boundary.
	ResyncDone
	// ResyncFatal means the protocol cannot resynchronize; the
	// connection must close once staged replies have flushed.
	ResyncFatal
)

// Adapter is the protocol seam: everything the codec needs to know
// about one concrete wire protocol. Implementations must be stateless
// (all parse state lives in the Decoder's buffer), so one value can
// serve every connection.
type Adapter interface {
	// Name is the protocol's telemetry label ("native", "resp").
	Name() string

	// Parse decodes the first complete request in buf into req and
	// returns the bytes consumed. n == 0 with a nil error means the
	// request is incomplete and more bytes are needed. A non-nil error
	// means the stream is unrecoverably out of sync (the decoder
	// answers a protocol error and closes). Malformed-but-framed input
	// must instead decode as CmdBad with the error reply attached, so
	// the connection survives it.
	Parse(buf []byte, req *Request) (n int, err error)

	// Encode appends rep's wire form to dst and returns the extended
	// slice.
	Encode(dst []byte, rep *Reply) []byte

	// Resync consumes bytes of an abandoned oversized request until
	// the next request boundary. It returns how many bytes of buf it
	// consumed and whether the stream is aligned again.
	Resync(buf []byte) (n int, state ResyncState)
}

// ErrDesync is returned by Decoder.Next once the stream cannot be
// parsed further (a RESP framing error, or an oversized request on a
// protocol that cannot skip it). The error reply explaining why was
// already delivered in the preceding batch.
var ErrDesync = errors.New("proto: protocol stream out of sync")

// parseUint64 parses an unsigned decimal from b with overflow
// checking, allocation-free. ok is false for empty input, a non-digit,
// or overflow — the same inputs strconv.ParseUint rejects.
func parseUint64(b []byte) (v uint64, ok bool) {
	if len(b) == 0 {
		return 0, false
	}
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (1<<64-1)/10 || (v == (1<<64-1)/10 && d > (1<<64-1)%10) {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// appendUint appends v in decimal to dst without allocating.
func appendUint(dst []byte, v uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(dst, tmp[i:]...)
}

// eqFold reports whether b equals the ASCII string s ignoring case.
// s must be lowercase.
func eqFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// fnv1a hashes arbitrary key/value bytes to the server's uint64
// keyspace (the RESP adapter's escape hatch for non-numeric keys).
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
