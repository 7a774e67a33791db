package proto

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// decodeAll runs a decoder to EOF, copying every request out of the
// arena so tests can inspect them after the fact.
func decodeAll(t *testing.T, d *Decoder) ([]Request, error) {
	t.Helper()
	var out []Request
	for {
		batch, err := d.Next()
		for _, r := range batch {
			c := r
			c.KV = append([]uint64(nil), r.KV...)
			out = append(out, c)
		}
		if err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
	}
}

func TestNativeParseBasics(t *testing.T) {
	cases := []struct {
		in   string
		cmd  Cmd
		kv   []uint64
		bad  string
		kind Kind
	}{
		{"get 7\r\n", CmdGet, []uint64{7}, "", KNone},
		{"GET 7\n", CmdGet, []uint64{7}, "", KNone},
		{"set 1 2\r\n", CmdSet, []uint64{1, 2}, "", KNone},
		{"  set   1\t2  \r\n", CmdSet, []uint64{1, 2}, "", KNone},
		{"incr 3 4\r\n", CmdIncr, []uint64{3, 4}, "", KNone},
		{"delete 9\r\n", CmdDelete, []uint64{9}, "", KNone},
		{"mget 1 2 3\r\n", CmdMGet, []uint64{1, 2, 3}, "", KNone},
		{"mset 1 2 3 4\r\n", CmdMSet, []uint64{1, 2, 3, 4}, "", KNone},
		{"ping\r\n", CmdPing, nil, "", KNone},
		{"quit\r\n", CmdQuit, nil, "", KNone},
		{"promote\r\n", CmdPromote, nil, "", KNone},
		{"get\r\n", CmdBad, nil, "usage: get <key>", KErrClient},
		{"get x\r\n", CmdBad, nil, "bad key", KErrClient},
		{"set 1\r\n", CmdBad, nil, "usage: set <key> <value>", KErrClient},
		{"set a b\r\n", CmdBad, nil, "keys and values are unsigned integers", KErrClient},
		{"mset 1 2 3\r\n", CmdBad, nil, "usage: mset <key> <value> ...", KErrClient},
		{"bogus\r\n", CmdBad, nil, "unknown command", KErrProto},
		{"quit now\r\n", CmdBad, nil, "unknown command", KErrProto},
		{"crash 0 1\r\n", CmdBad, nil, "usage: crash [shard]", KErrClient},
	}
	var na Native
	for _, tc := range cases {
		var req Request
		n, err := na.Parse([]byte(tc.in), &req)
		if err != nil || n != len(tc.in) {
			t.Fatalf("Parse(%q) = %d, %v; want %d, nil", tc.in, n, err, len(tc.in))
		}
		if req.Cmd != tc.cmd {
			t.Errorf("Parse(%q).Cmd = %d, want %d", tc.in, req.Cmd, tc.cmd)
		}
		if tc.cmd == CmdBad {
			if req.BadMsg != tc.bad || req.Bad != tc.kind {
				t.Errorf("Parse(%q) bad = %q/%d, want %q/%d", tc.in, req.BadMsg, req.Bad, tc.bad, tc.kind)
			}
			continue
		}
		if len(req.KV) != len(tc.kv) {
			t.Errorf("Parse(%q).KV = %v, want %v", tc.in, req.KV, tc.kv)
			continue
		}
		for i := range tc.kv {
			if req.KV[i] != tc.kv[i] {
				t.Errorf("Parse(%q).KV = %v, want %v", tc.in, req.KV, tc.kv)
				break
			}
		}
	}
}

func TestNativeParseStatsAndCrash(t *testing.T) {
	var na Native
	var req Request
	for in, want := range map[string]StatsSub{
		"stats\r\n":        StatsAggregate,
		"stats shards\r\n": StatsShards,
		"stats reset\r\n":  StatsReset,
		"stats bogus\r\n":  StatsAggregate, // unknown variant falls back, as before
		"stats a b\r\n":    StatsAggregate,
	} {
		if _, err := na.Parse([]byte(in), &req); err != nil || req.Cmd != CmdStats || req.Stats != want {
			t.Errorf("Parse(%q) = cmd %d stats %d err %v, want CmdStats/%d", in, req.Cmd, req.Stats, err, want)
		}
	}
	if _, _ = na.Parse([]byte("crash\r\n"), &req); req.Cmd != CmdCrash || req.HasShard {
		t.Errorf("crash: got %+v", req)
	}
	if _, _ = na.Parse([]byte("crash 2\r\n"), &req); req.Cmd != CmdCrash || !req.HasShard || req.Shard != 2 {
		t.Errorf("crash 2: got %+v", req)
	}
	if _, _ = na.Parse([]byte("crash xx\r\n"), &req); req.Cmd != CmdCrash || !req.HasShard || req.Shard != -1 {
		t.Errorf("crash xx: got %+v", req)
	}
	if _, _ = na.Parse([]byte("crash -3\r\n"), &req); req.Cmd != CmdCrash || req.Shard != -3 {
		t.Errorf("crash -3: got %+v", req)
	}
}

func TestNativeEncodeKinds(t *testing.T) {
	var na Native
	cases := []struct {
		rep  Reply
		want string
	}{
		{Reply{Kind: KStored}, "STORED\r\n"},
		{Reply{Kind: KStoredN, N: 3}, "STORED 3\r\n"},
		{Reply{Kind: KValue, Key: 4, Val: 9}, "VALUE 4 9\r\n"},
		{Reply{Kind: KNotFound}, "NOT_FOUND\r\n"},
		{Reply{Kind: KInt, Val: 12}, "12\r\n"},
		{Reply{Kind: KDelete, Items: []Item{{Key: 1, Found: true}}}, "DELETED\r\n"},
		{Reply{Kind: KDelete, Items: []Item{{Key: 1}}}, "NOT_FOUND\r\n"},
		{Reply{Kind: KMGet, Items: []Item{{Key: 1, Val: 2, Found: true}, {Key: 3}}},
			"VALUE 1 2\r\nNOT_FOUND 3\r\nEND\r\n"},
		{Reply{Kind: KRaw, Msg: "OK"}, "OK\r\n"},
		{Reply{Kind: KPong}, "PONG\r\n"},
		{Reply{Kind: KQuit}, ""},
		{Reply{Kind: KNone}, ""},
		{Reply{Kind: KErrClient, Msg: "bad key"}, "CLIENT_ERROR bad key\r\n"},
		{Reply{Kind: KErrServer, Msg: "boom"}, "SERVER_ERROR boom\r\n"},
		{Reply{Kind: KErrProto, Msg: "unknown command"}, "ERROR unknown command\r\n"},
	}
	for _, tc := range cases {
		got := string(na.Encode(nil, &tc.rep))
		if got != tc.want {
			t.Errorf("Encode(%+v) = %q, want %q", tc.rep, got, tc.want)
		}
	}
}

// chunkReader returns one byte per Read, forcing the decoder to
// reassemble requests across many fills.
type chunkReader struct{ b []byte }

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:1], c.b)
	c.b = c.b[n:]
	return n, nil
}

func TestDecoderBatchesPipelinedInput(t *testing.T) {
	in := "set 1 10\r\nset 2 20\r\nget 1\r\nmget 1 2\r\n"
	d := NewDecoder(strings.NewReader(in), Native{}, 0)
	batch, err := d.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if len(batch) != 4 {
		t.Fatalf("one buffered write should decode as one batch; got %d requests", len(batch))
	}
	want := []Cmd{CmdSet, CmdSet, CmdGet, CmdMGet}
	for i, r := range batch {
		if r.Cmd != want[i] {
			t.Errorf("batch[%d].Cmd = %d, want %d", i, r.Cmd, want[i])
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("Next after drain = %v, want EOF", err)
	}
}

func TestDecoderChunkedAndTrailingLine(t *testing.T) {
	in := "set 5 50\r\nget 5" // final line unterminated at EOF
	d := NewDecoder(&chunkReader{b: []byte(in)}, Native{}, 0)
	reqs, err := decodeAll(t, d)
	if err != nil {
		t.Fatalf("decodeAll: %v", err)
	}
	if len(reqs) != 2 || reqs[0].Cmd != CmdSet || reqs[1].Cmd != CmdGet || reqs[1].KV[0] != 5 {
		t.Fatalf("got %+v, want set then trailing get", reqs)
	}
}

func TestDecoderSkipsBlankLines(t *testing.T) {
	d := NewDecoder(strings.NewReader("\r\n \t\r\nping\r\n"), Native{}, 0)
	batch, err := d.Next()
	if err != nil || len(batch) != 1 || batch[0].Cmd != CmdPing {
		t.Fatalf("got %v, %v; want single ping", batch, err)
	}
}

func TestDecoderTooLargeNativeRecovers(t *testing.T) {
	// Complete-but-over-limit: the line fits the read buffer; the
	// decoder answers the error and skips to the line's own LF.
	huge := "mset " + strings.Repeat("1 2 ", 400) // ~1600 bytes
	in := huge + "\r\nget 7\r\n"
	d := NewDecoder(strings.NewReader(in), Native{}, 128)
	got, err := decodeAll(t, d)
	if err != nil {
		t.Fatalf("decodeAll: %v", err)
	}
	if len(got) != 2 || got[0].Cmd != CmdBad || got[0].BadMsg != tooLargeMsg {
		t.Fatalf("want too-large CmdBad then get, got %+v", got)
	}
	if got[1].Cmd != CmdGet || got[1].KV[0] != 7 {
		t.Fatalf("connection should survive an oversized line; got %+v", got)
	}

	// Over-buffer-capacity: the request cannot even be buffered whole,
	// so the decoder answers early and resyncs to the next newline.
	huge = "mset " + strings.Repeat("1 2 ", 4000) // ~16KB > 4KB read buffer
	in = huge + "\r\nget 9\r\n"
	d = NewDecoder(&chunkReader{b: []byte(in)}, Native{}, 128)
	got, err = decodeAll(t, d)
	if err != nil {
		t.Fatalf("decodeAll (resync): %v", err)
	}
	if len(got) != 2 || got[0].BadMsg != tooLargeMsg || got[1].Cmd != CmdGet || got[1].KV[0] != 9 {
		t.Fatalf("resync should recover the stream; got %+v", got)
	}
}

func TestDecoderTooLargeRESPIsFatal(t *testing.T) {
	var rs RESP
	var buf []byte
	req := Request{Cmd: CmdSet, KV: []uint64{1, 2}}
	buf = rs.AppendRequest(buf, &req)
	huge := append([]byte("*3\r\n$4\r\nMSET\r\n$200\r\n"), bytes.Repeat([]byte("9"), 200)...)
	d := NewDecoder(bytes.NewReader(append(buf, huge...)), RESP{}, 64)
	batch, err := d.Next()
	if err != nil || len(batch) != 2 || batch[0].Cmd != CmdSet || batch[1].BadMsg != tooLargeMsg {
		t.Fatalf("first batch should carry the set and the too-large error: %+v, %v", batch, err)
	}
	if _, err = d.Next(); err != ErrDesync {
		t.Fatalf("RESP cannot resync; Next = %v, want ErrDesync", err)
	}
}

// TestDecoderTooLargeSameWholeOrInPieces delivers an over-bound request
// plus a ping once in one read and once a byte per read: both must
// decode to the same sequence — native answers the error, then PONG's
// ping; RESP answers the error, then ends the stream with ErrDesync.
func TestDecoderTooLargeSameWholeOrInPieces(t *testing.T) {
	var rs RESP
	ping := Request{Cmd: CmdPing}
	mset := Request{Cmd: CmdMSet, KV: []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}
	for _, c := range []struct {
		name string
		a    Adapter
		wire []byte
	}{
		{"native", Native{}, []byte("mset " + strings.Repeat("1 2 ", 20) + "\r\nping\r\n")},
		{"resp", RESP{}, rs.AppendRequest(rs.AppendRequest(nil, &mset), &ping)},
	} {
		decode := func(r io.Reader) (seq []string) {
			d := NewDecoder(r, c.a, 64)
			for len(seq) < 10 {
				batch, err := d.Next()
				for _, req := range batch {
					seq = append(seq, req.Cmd.String()+" "+req.BadMsg)
				}
				if err != nil {
					return append(seq, err.Error())
				}
			}
			return seq
		}
		whole := decode(bytes.NewReader(c.wire))
		pieces := decode(iotest.OneByteReader(bytes.NewReader(c.wire)))
		if !slices.Equal(whole, pieces) {
			t.Errorf("%s: whole %q, in pieces %q", c.name, whole, pieces)
		}
		want := []string{CmdBad.String() + " " + tooLargeMsg, CmdPing.String() + " ", io.EOF.Error()}
		if c.name == "resp" {
			want = []string{CmdBad.String() + " " + tooLargeMsg, ErrDesync.Error()}
		}
		if !slices.Equal(whole, want) {
			t.Errorf("%s: got %q, want %q", c.name, whole, want)
		}
	}
}

func TestRESPParseArrayAndInline(t *testing.T) {
	var rs RESP
	var req Request
	wire := "*3\r\n$3\r\nSET\r\n$2\r\n42\r\n$1\r\n7\r\n"
	n, err := rs.Parse([]byte(wire), &req)
	if err != nil || n != len(wire) || req.Cmd != CmdSet || req.KV[0] != 42 || req.KV[1] != 7 {
		t.Fatalf("array SET: n=%d err=%v req=%+v", n, err, req)
	}
	// Partial frame: incomplete, no consumption.
	if n, err := rs.Parse([]byte(wire[:11]), &req); n != 0 || err != nil {
		t.Fatalf("partial frame: n=%d err=%v", n, err)
	}
	// Inline form.
	if _, err := rs.Parse([]byte("GET 42\r\n"), &req); err != nil || req.Cmd != CmdGet || req.KV[0] != 42 {
		t.Fatalf("inline GET: err=%v req=%+v", err, req)
	}
	// Non-numeric keys hash, and SET/GET agree on the mapping.
	if _, err := rs.Parse([]byte("*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n"), &req); err != nil || req.Cmd != CmdGet {
		t.Fatalf("GET foo: %v %+v", err, req)
	}
	if req.KV[0] != fnv1a([]byte("foo")) {
		t.Fatalf("text key should FNV-hash: got %d", req.KV[0])
	}
	// Arity error decodes as CmdBad but keeps the stream aligned.
	wire = "*1\r\n$3\r\nGET\r\n*2\r\n$4\r\nINCR\r\n$1\r\n5\r\n"
	n, err = rs.Parse([]byte(wire), &req)
	if err != nil || req.Cmd != CmdBad || req.BadMsg != "wrong number of arguments for 'get' command" {
		t.Fatalf("GET arity: n=%d err=%v req=%+v", n, err, req)
	}
	rest := wire[n:]
	if _, err := rs.Parse([]byte(rest), &req); err != nil || req.Cmd != CmdIncr || req.KV[0] != 5 || req.KV[1] != 1 {
		t.Fatalf("post-arity INCR: err=%v req=%+v", err, req)
	}
	// Framing garbage is a hard error.
	if _, err := rs.Parse([]byte("*2\r\n$3\r\nGET\r\nnope\r\n"), &req); err == nil {
		t.Fatal("non-bulk element should be a protocol error")
	}
}

func TestRESPEncodeKinds(t *testing.T) {
	var rs RESP
	cases := []struct {
		rep  Reply
		want string
	}{
		{Reply{Kind: KStored}, "+OK\r\n"},
		{Reply{Kind: KStoredN, N: 4}, "+OK\r\n"},
		{Reply{Kind: KValue, Val: 123}, "$3\r\n123\r\n"},
		{Reply{Kind: KNotFound}, "$-1\r\n"},
		{Reply{Kind: KInt, Val: 9}, ":9\r\n"},
		{Reply{Kind: KDelete, Items: []Item{{Found: true}, {}, {Found: true}}}, ":2\r\n"},
		{Reply{Kind: KMGet, Items: []Item{{Val: 7, Found: true}, {}}}, "*2\r\n$1\r\n7\r\n$-1\r\n"},
		{Reply{Kind: KRaw, Msg: "x y"}, "$3\r\nx y\r\n"},
		{Reply{Kind: KPong}, "+PONG\r\n"},
		{Reply{Kind: KEmpty}, "*0\r\n"},
		{Reply{Kind: KQuit}, "+OK\r\n"},
		{Reply{Kind: KErrClient, Msg: "nope"}, "-ERR nope\r\n"},
	}
	for _, tc := range cases {
		if got := string(rs.Encode(nil, &tc.rep)); got != tc.want {
			t.Errorf("Encode(%+v) = %q, want %q", tc.rep, got, tc.want)
		}
	}
}

func TestRESPAppendRequestRoundTrip(t *testing.T) {
	var rs RESP
	reqs := []Request{
		{Cmd: CmdGet, KV: []uint64{1}},
		{Cmd: CmdSet, KV: []uint64{2, 20}},
		{Cmd: CmdIncr, KV: []uint64{3, 5}},
		{Cmd: CmdDelete, KV: []uint64{4, 5}},
		{Cmd: CmdMGet, KV: []uint64{1, 2, 3}},
		{Cmd: CmdMSet, KV: []uint64{6, 60, 7, 70}},
		{Cmd: CmdPing},
		{Cmd: CmdStats, Stats: StatsShards},
		{Cmd: CmdCrash, HasShard: true, Shard: 1},
		{Cmd: CmdQuit},
	}
	var wire []byte
	for i := range reqs {
		wire = rs.AppendRequest(wire, &reqs[i])
	}
	d := NewDecoder(bytes.NewReader(wire), RESP{}, 0)
	got, err := decodeAll(t, d)
	if err != nil {
		t.Fatalf("decodeAll: %v", err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("round-trip count = %d, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i].Cmd != reqs[i].Cmd {
			t.Errorf("req %d: cmd %d, want %d", i, got[i].Cmd, reqs[i].Cmd)
		}
		for j := range reqs[i].KV {
			if got[i].KV[j] != reqs[i].KV[j] {
				t.Errorf("req %d: KV %v, want %v", i, got[i].KV, reqs[i].KV)
				break
			}
		}
	}
	if got[7].Stats != StatsShards {
		t.Errorf("stats sub lost: %+v", got[7])
	}
	if !got[8].HasShard || got[8].Shard != 1 {
		t.Errorf("crash shard lost: %+v", got[8])
	}
}

func TestNativeAppendRequestRoundTrip(t *testing.T) {
	var na Native
	reqs := []Request{
		{Cmd: CmdSet, KV: []uint64{2, 20}},
		{Cmd: CmdMSet, KV: []uint64{6, 60, 7, 70}},
		{Cmd: CmdGet, KV: []uint64{2}},
		{Cmd: CmdStats, Stats: StatsReset},
		{Cmd: CmdCrash, HasShard: true, Shard: 0},
	}
	var wire []byte
	for i := range reqs {
		wire = na.AppendRequest(wire, &reqs[i])
	}
	d := NewDecoder(bytes.NewReader(wire), Native{}, 0)
	got, err := decodeAll(t, d)
	if err != nil || len(got) != len(reqs) {
		t.Fatalf("decodeAll: %v, %d reqs", err, len(got))
	}
	for i := range reqs {
		if got[i].Cmd != reqs[i].Cmd {
			t.Errorf("req %d: cmd %d, want %d", i, got[i].Cmd, reqs[i].Cmd)
		}
	}
	if got[3].Stats != StatsReset || !got[4].HasShard || got[4].Shard != 0 {
		t.Errorf("modifiers lost: %+v / %+v", got[3], got[4])
	}
}

func TestEncoderStagesAndFlushes(t *testing.T) {
	var sink bytes.Buffer
	e := NewEncoder(&sink, Native{}, 0)
	e.Stage(&Reply{Kind: KStored})
	e.Stage(&Reply{Kind: KValue, Key: 1, Val: 2})
	if sink.Len() != 0 {
		t.Fatalf("staged replies must not hit the wire before Flush (wrote %d bytes)", sink.Len())
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := sink.String(); got != "STORED\r\nVALUE 1 2\r\n" {
		t.Fatalf("flushed %q", got)
	}
	if err := e.Flush(); err != nil || sink.Len() != len("STORED\r\nVALUE 1 2\r\n") {
		t.Fatalf("empty Flush should be a no-op")
	}
}

func TestEncoderBoundSpills(t *testing.T) {
	var sink bytes.Buffer
	e := NewEncoder(&sink, Native{}, 16)
	for i := 0; i < 10; i++ {
		e.Stage(&Reply{Kind: KStored}) // 8 bytes each
	}
	if sink.Len() == 0 {
		t.Fatal("bound should force mid-batch spills")
	}
	e.Flush()
	if got := sink.String(); got != strings.Repeat("STORED\r\n", 10) {
		t.Fatalf("spilled output corrupt: %q", got)
	}
}

// TestDecoderSniff: RESP on a leading '*' only, native otherwise. A
// sniffed RESP stream still parses inline lines after its first framed
// request.
func TestDecoderSniff(t *testing.T) {
	for _, c := range []struct{ stream, want string }{
		{"*1\r\n", "resp"},
		{"get 1\r\n", "native"},
	} {
		d := NewDecoder(strings.NewReader(c.stream), Native{}, 0)
		a, err := d.Sniff()
		if err != nil || a.Name() != c.want || d.Adapter().Name() != c.want {
			t.Errorf("Sniff on %q = %v, %v; want %s in use", c.stream, a, err, c.want)
		}
	}
	if _, err := NewDecoder(strings.NewReader(""), Native{}, 0).Sniff(); err == nil {
		t.Error("Sniff on an empty stream succeeded")
	}
	d := NewDecoder(strings.NewReader("*1\r\n$4\r\nPING\r\nPING\r\n"), Native{}, 0)
	if _, err := d.Sniff(); err != nil {
		t.Fatal(err)
	}
	batch, err := d.Next()
	if err != nil || len(batch) != 2 || batch[0].Cmd != CmdPing || batch[1].Cmd != CmdPing {
		t.Fatalf("framed then inline PING on a sniffed RESP stream: %v, %v", batch, err)
	}
}

func TestDecoderPeekAndUse(t *testing.T) {
	d := NewDecoder(strings.NewReader("*1\r\n$4\r\nPING\r\n"), Native{}, 0)
	b, err := d.Peek()
	if err != nil || b != '*' {
		t.Fatalf("Peek = %q, %v", b, err)
	}
	d.Use(RESP{})
	if d.Adapter().Name() != "resp" {
		t.Fatalf("Use did not switch adapter")
	}
	batch, err := d.Next()
	if err != nil || len(batch) != 1 || batch[0].Cmd != CmdPing {
		t.Fatalf("sniffed RESP ping: %v, %v", batch, err)
	}
}

func TestParseUint64Overflow(t *testing.T) {
	if _, ok := parseUint64([]byte("18446744073709551615")); !ok {
		t.Error("max uint64 should parse")
	}
	if _, ok := parseUint64([]byte("18446744073709551616")); ok {
		t.Error("overflow should fail")
	}
	if _, ok := parseUint64([]byte("")); ok {
		t.Error("empty should fail")
	}
	if _, ok := parseUint64([]byte("12x")); ok {
		t.Error("non-digit should fail")
	}
}

func TestDecoderManyPipelinedBatchCap(t *testing.T) {
	var wire []byte
	var na Native
	for i := 0; i < maxBatch+10; i++ {
		req := Request{Cmd: CmdSet, KV: []uint64{uint64(i), uint64(i)}}
		wire = na.AppendRequest(wire, &req)
	}
	d := NewDecoder(bytes.NewReader(wire), Native{}, 0)
	got, err := decodeAll(t, d)
	if err != nil || len(got) != maxBatch+10 {
		t.Fatalf("decoded %d reqs, err %v; want %d", len(got), err, maxBatch+10)
	}
}
