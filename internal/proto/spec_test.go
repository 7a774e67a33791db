package proto

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// Invariants of the command table: the properties every consumer of a
// row relies on, and the table's agreement with both adapters and with
// docs/PROTOCOL.md.

// protoAdapter is an Adapter that can also write requests.
type protoAdapter interface {
	Adapter
	AppendRequest(dst []byte, req *Request) []byte
}

// spelling returns the row's spelling under ad.
func spelling(sp *Spec, ad Adapter) string {
	if ad.Name() == "resp" {
		return sp.RESP
	}
	return sp.Native
}

// sampleRequests builds well-formed requests of command c from the
// row's argument shape: every optional argument present and absent,
// plus the variants the hand-written tails carry.
func sampleRequests(c Cmd, ad Adapter) []Request {
	sp := c.Spec()
	var out []Request
	switch {
	case c == CmdWait && ad.Name() == "resp":
		// RESP spells numreplicas, not an epoch target.
		return []Request{{Cmd: c, KV: []uint64{0, 250}}, {Cmd: c, KV: []uint64{2, 0}, WaitRepl: true}}
	case c == CmdWait:
		return []Request{{Cmd: c, KV: []uint64{0, 0}}, {Cmd: c, KV: []uint64{7, 0}}, {Cmd: c, KV: []uint64{7, 250}},
			{Cmd: c, KV: []uint64{1, 0}, WaitRepl: true}, {Cmd: c, KV: []uint64{1, 250}, WaitRepl: true}}
	case c == CmdStats:
		return []Request{{Cmd: c}, {Cmd: c, Stats: StatsShards}, {Cmd: c, Stats: StatsReset}}
	case c == CmdCrash:
		return []Request{{Cmd: c}, {Cmd: c, HasShard: true, Shard: 3}}
	case sp.variadic():
		for groups := 1; groups <= 3; groups++ {
			req := Request{Cmd: c}
			for i := 0; i < groups*sp.Stride; i++ {
				req.KV = append(req.KV, uint64(10+i))
			}
			out = append(out, req)
		}
	default:
		for n := len(sp.Args) - sp.Opt; n <= len(sp.Args); n++ {
			req := Request{Cmd: c}
			for i := 0; i < n; i++ {
				if sp.Args[i] == ArgAddr {
					req.Addr = "127.0.0.1:7002"
				} else {
					req.KV = append(req.KV, uint64(10+i))
				}
			}
			out = append(out, req)
		}
	}
	if sp.Mutates() {
		for _, req := range out[:len(out):len(out)] {
			tier, seq, both := req, req, req
			tier.Dur = DurRelaxed
			seq.HasSeq, seq.Seq = true, 7
			both.Dur, both.HasSeq, both.Seq = DurFire, true, 9
			out = append(out, tier, seq, both)
		}
	}
	return out
}

// parseOne parses wire, which must hold exactly one request.
func parseOne(t *testing.T, ad Adapter, wire []byte) Request {
	t.Helper()
	var req Request
	n, err := ad.Parse(wire, &req)
	if err != nil || n != len(wire) {
		t.Fatalf("%s Parse(%q) = %d, %v; want all %d bytes", ad.Name(), wire, n, err, len(wire))
	}
	return req
}

func TestSpecEveryCommandHasOneRow(t *testing.T) {
	for _, ad := range []Adapter{Native{}, RESP{}} {
		seen := map[string]Cmd{}
		for c := CmdGet; c < CmdBad; c++ {
			sp := c.Spec()
			if sp.Native == "" && sp.RESP == "" {
				t.Errorf("Cmd %d has no row (neither adapter spells it)", c)
			}
			if sp.Reply == KNone {
				t.Errorf("%v: row names no reply kind", c)
			}
			w := spelling(sp, ad)
			if w == "" {
				continue
			}
			if w != strings.ToLower(w) {
				t.Errorf("%v: %s spelling %q is not lowercase", c, ad.Name(), w)
			}
			if prev, dup := seen[w]; dup {
				t.Errorf("%s spelling %q names both %v and %v", ad.Name(), w, prev, c)
			}
			seen[w] = c
			if got := c.String(); got != sp.Native && (sp.Native != "" || got != sp.RESP) {
				t.Errorf("Cmd(%d).String() = %q", c, got)
			}
		}
		if ad.Name() == "resp" {
			for _, al := range respAliases {
				if prev, dup := seen[al.word]; dup {
					t.Errorf("RESP alias %q collides with %v's row", al.word, prev)
				}
				seen[al.word] = al.cmd
			}
		}
	}
	for _, c := range []Cmd{CmdNone, CmdBad} {
		if sp := c.Spec(); sp.Native != "" || sp.RESP != "" {
			t.Errorf("%v must have no spelling", c)
		}
	}
	if got := Cmd(200).String(); got != "cmd(200)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestSpecShapesAgree(t *testing.T) {
	for c := CmdGet; c < CmdBad; c++ {
		sp := c.Spec()
		if sp.Opt > len(sp.Args) {
			t.Errorf("%v: Args %q / Opt %d out of bounds", c, sp.Args, sp.Opt)
		}
		if strings.Trim(sp.Args, string([]byte{ArgHash, ArgInt, ArgID, ArgAddr})) != "" {
			t.Errorf("%v: Args %q holds an unknown kind", c, sp.Args)
		}
		keyed := sp.Verb == VerbRead || sp.Mutates()
		switch {
		case keyed != (sp.Stride > 0):
			t.Errorf("%v: verb %d with key stride %d", c, sp.Verb, sp.Stride)
		case sp.variadic():
			if sp.Stride > 2 {
				t.Errorf("%v: variadic stride %d", c, sp.Stride)
			}
		case sp.Stride > 0 && (len(sp.Args) != sp.Stride || sp.Args[0] != ArgHash || sp.Opt != 0):
			t.Errorf("%v: key stride %d disagrees with Args %q", c, sp.Stride, sp.Args)
		}
		if (sp.Opt > 0) != (sp.BadOpt != "") {
			t.Errorf("%v: Opt %d with BadOpt %q", c, sp.Opt, sp.BadOpt)
		}
		if (sp.Route == RouteSplit || sp.Route == RouteBroadcast) != (sp.Merge != MergeNone) {
			t.Errorf("%v: route %d with merge %d", c, sp.Route, sp.Merge)
		}
		if sp.Route == RouteSplit && !sp.variadic() {
			t.Errorf("%v: split route on a fixed-arity command", c)
		}
		if data := sp.Plan == PlanJoin || sp.Plan == PlanRead; data != (sp.Verb != VerbNone) {
			t.Errorf("%v: plan class %d with verb %d", c, sp.Plan, sp.Verb)
		}
		if sp.Block && sp.Reply != KRaw {
			t.Errorf("%v: Block on reply kind %d", c, sp.Reply)
		}
		if (sp.Verb != VerbNone || c == CmdWait) && sp.Tel.String() != sp.Native {
			t.Errorf("%v: telemetry label %q", c, sp.Tel)
		}
	}
}

// TestSpecRoundTrip is the test CLUSTER and MIGRATE failed before the
// table: RESP parsed them but RESP.AppendRequest emitted nothing.
func TestSpecRoundTrip(t *testing.T) {
	for _, ad := range []protoAdapter{Native{}, RESP{}} {
		for c := CmdNone; c <= CmdBad; c++ {
			if spelling(c.Spec(), ad) == "" {
				if wire := ad.AppendRequest(nil, &Request{Cmd: c}); len(wire) != 0 {
					t.Errorf("%s spells no %v but AppendRequest wrote %q", ad.Name(), c, wire)
				}
				continue
			}
			for _, want := range sampleRequests(c, ad) {
				wire := ad.AppendRequest(nil, &want)
				got := parseOne(t, ad, wire)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %q\n got %+v\nwant %+v", ad.Name(), wire, got, want)
				}
			}
		}
	}
}

func TestSpecMutatesIffOptionsAccepted(t *testing.T) {
	for _, ad := range []protoAdapter{Native{}, RESP{}} {
		for c := CmdGet; c < CmdBad; c++ {
			sp := c.Spec()
			if spelling(sp, ad) == "" {
				continue
			}
			// The first sample's wire form, with both options appended.
			wire := string(ad.AppendRequest(nil, &sampleRequests(c, ad)[0]))
			if ad.Name() == "resp" {
				var n int
				fmt.Sscanf(wire, "*%d\r\n", &n)
				wire = fmt.Sprintf("*%d\r\n%s$7\r\nrelaxed\r\n$5\r\nseq=7\r\n", n+2, wire[strings.Index(wire, "\n")+1:])
			} else {
				wire = strings.TrimSuffix(wire, "\r\n") + " relaxed seq=7\r\n"
			}
			got := parseOne(t, ad, []byte(wire))
			took := got.Dur == DurRelaxed && got.HasSeq && got.Seq == 7
			if sp.Mutates() && (!took || got.Cmd != c) {
				t.Errorf("%s %q: a mutating command must accept tier and seq, got %+v", ad.Name(), wire, got)
			}
			if !sp.Mutates() && got.Cmd != CmdBad && (got.Dur != DurDurable || got.HasSeq) {
				t.Errorf("%s %q: a non-mutating command took an option: %+v", ad.Name(), wire, got)
			}
		}
	}
}

// TestSpecSpellingsDocumented is the doc-drift gate for the command
// sets: every spelling in the table (aliases included) appears as a
// command entry in docs/PROTOCOL.md, native lowercase, RESP uppercase.
func TestSpecSpellingsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := func(word string) bool {
		return strings.Contains(string(doc), "`"+word+" ") || strings.Contains(string(doc), "`"+word+"`")
	}
	for c := CmdGet; c < CmdBad; c++ {
		sp := c.Spec()
		if sp.Native != "" && !documented(sp.Native) {
			t.Errorf("native command `%s` missing from docs/PROTOCOL.md", sp.Native)
		}
		if sp.RESP != "" && !documented(strings.ToUpper(sp.RESP)) {
			t.Errorf("RESP command `%s` missing from docs/PROTOCOL.md", strings.ToUpper(sp.RESP))
		}
	}
	for _, al := range respAliases {
		if w := strings.ToUpper(strings.TrimSpace(al.word + " " + al.sub)); !documented(w) {
			t.Errorf("RESP command `%s` missing from docs/PROTOCOL.md", w)
		}
	}
}

func TestReadNativeReplyErrorNamesCommand(t *testing.T) {
	var rep Reply
	err := ReadNativeReply(bufio.NewReader(strings.NewReader("PONG\r\n")), CmdMGet, 2, &rep)
	if !errors.Is(err, ErrReply) {
		t.Fatalf("err = %v, want ErrReply", err)
	}
	err = ReadNativeReply(bufio.NewReader(strings.NewReader("bogus\r\n")), CmdSet, 1, &rep)
	if !errors.Is(err, ErrReply) || !strings.Contains(err.Error(), "answering set") {
		t.Fatalf("err = %v, want ErrReply naming the set it answers", err)
	}
}
