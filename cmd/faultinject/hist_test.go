package main

import (
	"fmt"
	"strings"
	"testing"
)

// histStep is one event of a synthetic history: issue v, ack v (epoch
// 0 is durable), cover, or a check reading v after a crash with
// frontier p.
type histStep struct {
	op       string
	v, epoch uint64
}

func issue(v uint64) histStep        { return histStep{op: "issue", v: v} }
func ackAt(v, e uint64) histStep     { return histStep{op: "ack", v: v, epoch: e} }
func cover() histStep                { return histStep{op: "cover"} }
func checkAt(got, p uint64) histStep { return histStep{op: "check", v: got, epoch: p} }

// replay runs steps on a fresh keyHist and returns the first check's
// error.
func replay(steps []histStep) error {
	h := &keyHist{key: 7}
	for _, s := range steps {
		switch s.op {
		case "issue":
			h.issue(s.v)
		case "ack":
			h.ack(s.v, s.epoch)
		case "cover":
			h.cover()
		case "check":
			if err := h.check(s.v, s.epoch); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestKeyHistCatchesViolations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps []histStep
		want  string
	}{
		{"lost durable ack", []histStep{ackAt(1, 0), ackAt(2, 0), checkAt(1, 9)}, "must survive"},
		{"durable key absent", []histStep{ackAt(1, 0), checkAt(0, 9)}, "must survive"},
		{"covered ack lost", []histStep{ackAt(1, 3), ackAt(2, 4), cover(), checkAt(1, 0)}, "must survive"},
		{"relaxed ack stamped at the frontier lost", []histStep{ackAt(1, 2), ackAt(2, 3), checkAt(1, 3)}, "must survive"},
		{"relaxed ack stamped below the frontier lost", []histStep{ackAt(1, 2), ackAt(2, 3), checkAt(0, 5)}, "must survive"},
		{"last check's read vanished", []histStep{ackAt(1, 2), checkAt(1, 9), checkAt(0, 9)}, "must survive"},
		{"never-acked value", []histStep{ackAt(1, 2), ackAt(3, 2), checkAt(2, 1)}, "never acked"},
		{"value above the last issue", []histStep{ackAt(1, 0), issue(2), checkAt(3, 0)}, "never acked"},
		{"value between acks", []histStep{ackAt(1, 4), checkAt(1, 9), ackAt(4, 12), ackAt(6, 12), checkAt(5, 9)}, "never acked"},
		{"wait repl-covered ack lost with the primary", []histStep{ackAt(1, unreplicated), ackAt(2, unreplicated), cover(), ackAt(3, unreplicated), checkAt(1, 0)}, "must survive"},
		{"value neither acked nor in flight at the kill", []histStep{ackAt(1, unreplicated), cover(), ackAt(2, unreplicated), issue(3), checkAt(4, 0)}, "never acked"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := replay(tc.steps)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestKeyHistAcceptsLegalHistories(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps []histStep
	}{
		{"never written", []histStep{checkAt(0, 5)}},
		{"durable ack survives", []histStep{ackAt(1, 0), ackAt(2, 0), checkAt(2, 0)}},
		{"in-flight issue applied", []histStep{ackAt(1, 0), issue(2), checkAt(2, 0)}},
		{"in-flight issue lost", []histStep{ackAt(1, 0), issue(2), checkAt(1, 0)}},
		{"relaxed suffix shed above the frontier", []histStep{ackAt(1, 2), ackAt(2, 3), ackAt(3, 4), checkAt(1, 2)}},
		{"relaxed suffix kept above the frontier", []histStep{ackAt(1, 2), ackAt(2, 3), ackAt(3, 4), checkAt(3, 2)}},
		{"whole cycle shed: the last read resurfaces", []histStep{ackAt(1, 2), checkAt(1, 5), ackAt(2, 8), checkAt(1, 5)}},
		{"covered acks survive", []histStep{ackAt(1, 3), ackAt(2, 4), cover(), checkAt(2, 0)}},
		{"history carries over checks", []histStep{ackAt(1, 0), checkAt(1, 0), ackAt(4, 0), checkAt(4, 1)}},
		{"uncovered acks died with the primary", []histStep{ackAt(1, unreplicated), cover(), ackAt(2, unreplicated), ackAt(3, unreplicated), issue(4), checkAt(1, 0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := replay(tc.steps); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWriterDetectability(t *testing.T) {
	w := &writer{sess: 1}
	for i, tc := range []struct {
		first, resent uint64
		want          string
	}{
		{delta, delta, ""},
		{2 * delta, 3 * delta, "resend answered"},         // the resend applied again
		{2 * delta, 2 * delta, ""},                        // a failed check records nothing
		{4 * delta, 4 * delta, "an acked write lost"},     // seq skipped a value
		{2 * delta, 2 * delta, "an acked write lost"},     // seq applied nothing
		{3 * delta, 3 * delta, ""},                        // back on track
		{4*delta + 1, 4*delta + 1, "an acked write lost"}, // not a delta step
	} {
		w.seq++
		w.issue(w.floor + delta)
		err := w.acked(tc.first, tc.resent)
		if got := fmt.Sprint(err); tc.want == "" && err != nil || tc.want != "" && !strings.Contains(got, tc.want) {
			t.Fatalf("step %d: acked(%d, %d) = %v, want %q", i, tc.first, tc.resent, err, tc.want)
		}
	}
	if w.floor != 3*delta {
		t.Fatalf("floor %d, want %d", w.floor, 3*delta)
	}
}
