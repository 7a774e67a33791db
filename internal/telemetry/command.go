package telemetry

import "time"

// Command enumerates the cache server's protocol commands, the key of
// the per-command latency attribution the batch pipeline reports: a
// coalesced drain serves gets and sets in the same critical section, so
// only per-command histograms can show whether reads ride along for
// free or pay for the mutations they were batched with.
type Command uint8

const (
	CmdGet Command = iota
	CmdSet
	CmdIncr
	CmdDelete
	CmdMGet
	CmdMSet
	// The z* commands operate on the ordered keyspace (the persistent
	// skip list): point writes ride the batch pipeline, range reads run
	// lock-free with no Atlas machinery at all.
	CmdZAdd
	CmdZGet
	CmdZIncr
	CmdZDel
	CmdZRange
	CmdZCount
	// CmdWait labels durability-barrier requests: epoch waits and
	// replication-ack waits both land here, so barrier latency (which
	// includes the block time) never pollutes mutation histograms.
	CmdWait
	// CmdRepl labels operations a follower applies from its replication
	// stream — the same exec path as client commands, attributed
	// separately so replica apply cost never masquerades as client
	// traffic.
	CmdRepl

	// NumCommands bounds the enum; CommandLatency sizes its histogram
	// array with it.
	NumCommands = int(CmdRepl) + 1
)

// commandNames holds each command's wire-protocol spelling, in enum
// order.
var commandNames = [NumCommands]string{
	CmdGet: "get", CmdSet: "set", CmdIncr: "incr", CmdDelete: "delete", CmdMGet: "mget", CmdMSet: "mset",
	CmdZAdd: "zadd", CmdZGet: "zget", CmdZIncr: "zincr", CmdZDel: "zdel", CmdZRange: "zrange", CmdZCount: "zcount",
	CmdWait: "wait", CmdRepl: "repl",
}

// String returns the wire-protocol spelling of the command.
func (c Command) String() string {
	if int(c) < NumCommands {
		return commandNames[c]
	}
	return "unknown"
}

// Protocol labels which wire protocol carried a command — the second
// dimension of command-latency attribution. The same get executes the
// same shard code whether it arrived as native text or RESP, but the
// codec in front of it differs; per-protocol histograms are how an
// adapter regression shows up without a cross-protocol A/B harness.
type Protocol uint8

const (
	// ProtoInternal labels work that arrived on no wire protocol:
	// replication apply, embedded callers, tests driving exec directly.
	ProtoInternal Protocol = iota
	// ProtoNative is the server's line-oriented text protocol.
	ProtoNative
	// ProtoRESP is the RESP2 adapter.
	ProtoRESP

	// NumProtocols bounds the enum.
	NumProtocols = int(ProtoRESP) + 1
)

// protocolNames holds each protocol's telemetry label, in enum order.
var protocolNames = [NumProtocols]string{ProtoInternal: "internal", ProtoNative: "native", ProtoRESP: "resp"}

// String returns the protocol's stable telemetry label.
func (p Protocol) String() string {
	if int(p) < NumProtocols {
		return protocolNames[p]
	}
	return "unknown"
}

// CommandLatency is a bundle of per-protocol, per-command latency
// histograms. Like every section it is nil-receiver safe: a nil
// *CommandLatency is "telemetry off".
type CommandLatency struct {
	hists [NumProtocols][NumCommands]Histogram
}

// ObserveProto records the service time of n requests under their
// protocol and command. Out-of-range values are dropped rather than
// panicking — the histogram is telemetry, not control flow.
func (c *CommandLatency) ObserveProto(p Protocol, cmd Command, d time.Duration, n uint64) {
	if c == nil || int(cmd) >= NumCommands || int(p) >= NumProtocols {
		return
	}
	c.hists[p][cmd].ObserveN(d, n)
}

// commandRows are the per-command latency families: merged across
// protocols, and per protocol.
var commandRows = []Row[CommandLatency]{
	{Desc: Desc{Name: "cmd_<cmd>", Kind: KindDuration, Help: "service time per command, every protocol"},
		labels: fixed[CommandLatency](oneLabel(commandNames[:]...)),
		read: func(c *CommandLatency, i int, out *cell) {
			for p := range c.hists {
				out.hs = append(out.hs, &c.hists[p][i])
			}
		}},
	{Desc: Desc{Name: "proto_<proto>_cmd_<cmd>", Kind: KindDuration, Help: "service time per wire protocol and command"},
		labels: fixed[CommandLatency](protoCmdLabels()),
		read: func(c *CommandLatency, i int, out *cell) {
			out.hs = append(out.hs, &c.hists[i/NumCommands][i%NumCommands])
		}},
}

// protoCmdLabels is every (protocol, command) pair, protocol-major.
func protoCmdLabels() [][]string {
	var out [][]string
	for _, p := range protocolNames {
		for _, c := range commandNames {
			out = append(out, []string{p, c})
		}
	}
	return out
}
