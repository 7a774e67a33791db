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

// Commands lists every command in enum order, for deterministic
// rendering of per-command surfaces.
func Commands() []Command {
	cmds := make([]Command, NumCommands)
	for i := range cmds {
		cmds[i] = Command(i)
	}
	return cmds
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

// String returns the protocol's stable telemetry label.
func (p Protocol) String() string {
	switch p {
	case ProtoNative:
		return "native"
	case ProtoRESP:
		return "resp"
	case ProtoInternal:
		return "internal"
	default:
		return "unknown"
	}
}

// Protocols lists every protocol in enum order, for deterministic
// rendering of per-protocol surfaces.
func Protocols() []Protocol {
	return []Protocol{ProtoInternal, ProtoNative, ProtoRESP}
}

// CommandLatency is a bundle of per-protocol, per-command latency
// histograms. Like every section it is nil-receiver safe: a nil
// *CommandLatency is "telemetry off".
type CommandLatency struct {
	hists [NumProtocols][NumCommands]Histogram
}

// Observe records one request's service time under its command with no
// protocol attribution (ProtoInternal) — the pre-seam API, kept for
// embedded callers.
func (c *CommandLatency) Observe(cmd Command, d time.Duration) {
	c.ObserveProto(ProtoInternal, cmd, d)
}

// ObserveProto records one request's service time under its protocol
// and command. Out-of-range values are dropped rather than panicking —
// the histogram is telemetry, not control flow.
func (c *CommandLatency) ObserveProto(p Protocol, cmd Command, d time.Duration) {
	if c == nil || int(cmd) >= NumCommands || int(p) >= NumProtocols {
		return
	}
	c.hists[p][cmd].Observe(d)
}

// Snapshot copies one command's histogram merged across protocols
// (zero value on nil).
func (c *CommandLatency) Snapshot(cmd Command) HistogramSnapshot {
	var s HistogramSnapshot
	if c == nil || int(cmd) >= NumCommands {
		return s
	}
	for p := 0; p < NumProtocols; p++ {
		s.Merge(c.hists[p][cmd].Snapshot())
	}
	return s
}

// SnapshotProto copies one protocol × command histogram.
func (c *CommandLatency) SnapshotProto(p Protocol, cmd Command) HistogramSnapshot {
	if c == nil || int(cmd) >= NumCommands || int(p) >= NumProtocols {
		return HistogramSnapshot{}
	}
	return c.hists[p][cmd].Snapshot()
}

// Reset zeroes every histogram in the bundle.
func (c *CommandLatency) Reset() {
	if c == nil {
		return
	}
	for p := range c.hists {
		for i := range c.hists[p] {
			c.hists[p][i].Reset()
		}
	}
}

// CommandLatencySnapshot is the point-in-time copy of one protocol's
// (or the merged) command histograms, and the unit of cross-shard
// aggregation.
type CommandLatencySnapshot [NumCommands]HistogramSnapshot

// SnapshotAll copies every command's histogram merged across protocols
// — the protocol-blind view the aggregate stats report.
func (c *CommandLatency) SnapshotAll() CommandLatencySnapshot {
	var s CommandLatencySnapshot
	if c == nil {
		return s
	}
	for p := range c.hists {
		for i := range c.hists[p] {
			s[i].Merge(c.hists[p][i].Snapshot())
		}
	}
	return s
}

// SnapshotAllByProto copies every protocol × command histogram at
// once, protocols unmerged.
func (c *CommandLatency) SnapshotAllByProto() [NumProtocols]CommandLatencySnapshot {
	var s [NumProtocols]CommandLatencySnapshot
	if c == nil {
		return s
	}
	for p := range c.hists {
		for i := range c.hists[p] {
			s[p][i] = c.hists[p][i].Snapshot()
		}
	}
	return s
}

// Merge adds other's buckets into s, command by command.
func (s *CommandLatencySnapshot) Merge(other CommandLatencySnapshot) {
	for i := range s {
		s[i].Merge(other[i])
	}
}
