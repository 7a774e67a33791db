package proto

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The differential test for the two parsers. testdata/parse_golden.txt
// was recorded from the hand-unrolled per-command parse switches, at the
// commit before the command table replaced them; the table-driven
// parsers must reproduce every entry byte for byte. One entry per line:
//
//	<form> <quoted input> -> <outcome>
//
// where form is native (Native.Parse), native-eof (Native.ParseEOF) or
// resp (RESP.Parse, array and inline input alike), and the outcome is
// the consumed byte count followed by either the decoded Request's
// fields or, for a malformed request, the exact error reply the adapter
// renders for it. The test only replays the recorded inputs — the
// seeded generator below runs under -update alone — so it does not
// depend on math/rand producing the same stream forever.

var updateGolden = flag.Bool("update", false, "re-record testdata/parse_golden.txt from the parsers in this tree")

const (
	goldenPath = "testdata/parse_golden.txt"
	goldenSeed = 20261003
)

// goldenOutcome renders what parsing input yields, in the corpus's
// outcome syntax.
func goldenOutcome(form, input string) string {
	var req Request
	var ad Adapter = Native{}
	var n int
	var err error
	switch form {
	case "native":
		n, err = Native{}.Parse([]byte(input), &req)
	case "native-eof":
		n, err = Native{}.ParseEOF([]byte(input), &req)
	default:
		ad = RESP{}
		n, err = RESP{}.Parse([]byte(input), &req)
	}
	if err != nil {
		return fmt.Sprintf("n=%d err=%q", n, err.Error())
	}
	if n == 0 {
		return "n=0"
	}
	if req.Cmd == CmdBad {
		return fmt.Sprintf("n=%d bad %q", n, ad.Encode(nil, &Reply{Kind: req.Bad, Msg: req.BadMsg}))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d cmd=%d kv=%v", n, req.Cmd, req.KV)
	if req.Stats != StatsAggregate {
		fmt.Fprintf(&b, " stats=%d", req.Stats)
	}
	if req.HasShard || req.Shard != 0 {
		fmt.Fprintf(&b, " shard=%v/%d", req.HasShard, req.Shard)
	}
	if req.Dur != DurDurable {
		fmt.Fprintf(&b, " dur=%d", req.Dur)
	}
	if req.WaitRepl {
		b.WriteString(" repl")
	}
	if req.HasSeq || req.Seq != 0 {
		fmt.Fprintf(&b, " seq=%v/%d", req.HasSeq, req.Seq)
	}
	if req.Addr != "" {
		fmt.Fprintf(&b, " addr=%q", req.Addr)
	}
	return b.String()
}

// respArray frames words as a RESP array of bulk strings.
func respArray(words []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "*%d\r\n", len(words))
	for _, w := range words {
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(w), w)
	}
	return b.String()
}

// goldenEntry is one corpus input.
type goldenEntry struct{ form, input string }

// goldenInputs builds the corpus: every documented spelling, a
// systematic sweep of every command word against every argument count
// and option suffix (which is where every usage, bad-argument,
// bad-option and bad-seq line comes from), torn and corrupted RESP
// frames, and a seeded random token soup.
func goldenInputs() []goldenEntry {
	var out []goldenEntry
	seen := map[goldenEntry]bool{}
	add := func(form, input string) {
		e := goldenEntry{form, input}
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	// line adds words as a native line, a RESP array and a RESP inline
	// line; an empty word exists only as a bulk string.
	line := func(words []string, native, resp bool) {
		joined := strings.Join(words, " ")
		plain := true
		for _, w := range words[1:] {
			plain = plain && w != ""
		}
		if native && plain {
			add("native", joined+"\r\n")
		}
		if resp {
			add("resp", respArray(words))
			if plain {
				add("resp", joined+"\r\n")
			}
		}
	}

	nativeWords := []string{"get", "set", "incr", "delete", "mget", "mset",
		"zadd", "zget", "zincr", "zdel", "zrange", "zcount", "wait", "session",
		"stats", "crash", "promote", "cluster", "migrate", "acceptslot", "ping", "quit",
		"info", "command", "del", "incrby", "client", "frobnicate"}
	respWords := []string{"GET", "SET", "INCR", "INCRBY", "DEL", "MGET", "MSET",
		"ZADD", "ZGET", "ZINCR", "ZDEL", "ZRANGE", "ZCOUNT", "WAIT", "SESSION",
		"CLIENT", "PING", "INFO", "COMMAND", "QUIT", "STATS", "CRASH", "PROMOTE",
		"CLUSTER", "MIGRATE", "ACCEPTSLOT", "DELETE", "FROBNICATE"}

	// 1. The spellings docs/PROTOCOL.md §2–§3 lists, argument for argument.
	for _, l := range []string{
		"get 1", "set 1 100", "incr 1 5", "delete 1", "delete 1 2 3", "mget 1 2 3", "mset 1 10 2 20",
		"zadd 5 50", "zget 5", "zincr 5 2", "zdel 5", "zrange 0 100", "zrange 0 100 16", "zcount 0 100",
		"set 1 2 durable", "set 1 2 relaxed", "set 1 2 fire", "set 1 2 seq=9", "set 1 2 relaxed seq=9",
		"set 1 2 seq=9 relaxed", "incr 1 5 fire seq=3", "delete 1 relaxed", "delete 1 seq=4",
		"mset 1 10 2 20 relaxed", "mset 1 10 2 20 seq=2", "zadd 5 50 relaxed", "zincr 5 2 seq=8", "zdel 5 fire",
		"wait", "wait 0", "wait 7", "wait 7 250", "wait repl", "wait repl 250", "session 7",
		"stats", "stats shards", "stats reset", "crash", "crash 1", "promote", "ping", "quit",
		"cluster", "cluster info", "migrate 12 127.0.0.1:7002", "acceptslot 12",
	} {
		line(strings.Fields(l), true, false)
		add("native", l+"\n")
		add("native", strings.ToUpper(l)+"\r\n")
		add("native-eof", l)
	}
	for _, l := range []string{
		"GET k", "GET 1", "SET k v", "SET 1 2 relaxed", "SET 1 2 seq=3", "SET 1 2 fire seq=3", "INCR k", "INCR 1 relaxed",
		"INCRBY k 5", "INCRBY 1 5 seq=2", "DEL a", "DEL a b c", "DEL 1 seq=2", "DEL 1 2 relaxed", "MGET a b c",
		"MSET a 1 b 2", "MSET 1 2 3 4 relaxed seq=5", "ZADD 5 50", "ZGET 5", "ZINCR 5 2", "ZDEL 5", "ZDEL 5 fire",
		"ZRANGE 0 100", "ZRANGE 0 100 16", "ZCOUNT 0 100", "WAIT 0 250", "WAIT 2 250", "SESSION 7", "SESSION alice",
		"CLIENT SESSION 7", "CLIENT SESSION alice", "CLIENT LIST", "CLIENT", "PING", "PING hello", "INFO", "INFO server",
		"COMMAND", "COMMAND DOCS", "QUIT", "STATS", "STATS shards", "STATS reset", "CRASH", "CRASH 1", "PROMOTE",
		"CLUSTER", "CLUSTER INFO", "CLUSTER NODES", "MIGRATE 12 127.0.0.1:7002",
	} {
		line(strings.Fields(l), false, true)
		line(strings.Fields(strings.ToLower(l)), false, true)
	}

	// 2. Every command word × argument shape, then × option suffix on
	// the shapes where a suffix can be legal.
	bodies := [][]string{
		{}, {"1"}, {"1", "2"}, {"1", "2", "3", "4"}, {"x", "2"},
		{"x"}, {"1", "y"}, {"0"}, {"0", "0"}, {"1", "2", "3"}, {"1", "2", "z"}, {"1", "2", "3", "4", "5"},
		{"18446744073709551615"}, {"18446744073709551616"}, {"1", "18446744073709551616"},
		{"-1"}, {"+1"}, {"repl"}, {"repl", "5"}, {"repl", "x"}, {"repl", "5", "6"}, {"info"}, {"info", "1"},
		{"shards"}, {"reset"}, {"bogus"}, {"shards", "1"}, {"session", "7"}, {"session"}, {"session", "0"},
		{"session", "7", "8"}, {"3", "10.0.0.1:7"}, {"x", "10.0.0.1:7"}, {"3", "10.0.0.1:7", "9"}, {"64", "a"},
	}
	suffixes := [][]string{
		{}, {"durable"}, {"relaxed"}, {"FIRE"}, {"seq=5"}, {"relaxed", "seq=5"}, {"SEQ=5", "fire"},
		{"relaxed", "fire"}, {"seq=1", "seq=2"}, {"seq=0"}, {"seq=x"}, {"bogus"},
	}
	for bi, body := range bodies {
		for si, suf := range suffixes {
			if si > 0 && bi > 4 {
				break
			}
			for _, w := range nativeWords {
				line(append(append([]string{w}, body...), suf...), true, false)
			}
			for _, w := range respWords {
				words := append(append([]string{w}, body...), suf...)
				add("resp", respArray(words))
				if si == 0 && bi < 12 {
					add("resp", strings.Join(words, " ")+"\r\n")
				}
			}
		}
	}
	for _, suf := range []string{"seq=", "relaxed bogus", "seq=18446744073709551615", "seq=18446744073709551616",
		"relaxed seq=5 fire", "seq=5 seq=5", "durable durable", "fire x", "x fire"} {
		for _, l := range []string{"set 1 2 ", "incr 1 2 ", "delete 1 ", "mset 1 2 3 4 ", "zdel 1 ", "del 1 ", "incrby 1 2 "} {
			line(strings.Fields(l+suf), true, true)
		}
	}

	// 3. Framing: blank and whitespace-only input, torn frames (every
	// prefix of a few requests), lying and malformed headers.
	for _, s := range []string{"", "\r\n", "\n", "  \t \r\n", "get 1", "get", " get\t1 \r\n", "\x00\r\n",
		"*0\r\n", "*1\r\n", "*-1\r\n", "*x\r\n", "*99999999999\r\n", "*1\r\n:1\r\n", "*1\r\n$x\r\n", "*1\r\n$-1\r\n",
		"*1\r\n$3\r\nGETxx", "*2\r\n$3\r\nGET\r\n+1\r\n", "*2\r\n$3\r\nGET\r\n$1\r\n1\n\n", "*1\n$4\nPING\r\n",
		"*3\r\n$3\r\nGET\r\n$1\r\n1\r\n:5\r\n", "*3\r\n$3\r\nSET\r\n$1\r\n1\r\n$0\r\n\r\n", "*2\r\n$0\r\n\r\n$1\r\n1\r\n",
		"*" + strings.Repeat("1", 40), "$5\r\nhello\r\n", "\x00\x01\x02\r\n"} {
		add("native", s)
		add("native-eof", s)
		add("resp", s)
	}
	for _, words := range [][]string{
		{"SET", "k", "v", "relaxed", "seq=7"}, {"ZRANGE", "0", "9", "3", "4"}, {"CLIENT", "SESSION", "7"}, {"GET"},
	} {
		full := respArray(words)
		for i := 1; i < len(full); i++ {
			add("resp", full[:i])
		}
		for i := 0; i < len(full); i++ {
			if full[i] == '$' || full[i] == '\r' {
				add("resp", full[:i]+"!"+full[i+1:])
			}
		}
	}

	// 4. Seeded token soup, in every form.
	rng := rand.New(rand.NewSource(goldenSeed))
	vocab := []string{"0", "1", "2", "7", "42", "65", "4096", "18446744073709551615", "18446744073709551616",
		"-1", "+3", "007", "1e3", "abc", "KEY", "k:1", "☃", "", "durable", "relaxed", "fire", "Relaxed", "FIRE",
		"seq=1", "seq=9", "seq=0", "seq=", "seq=x", "SEQ=4", "seq=-1", "seq=18446744073709551616", "seqq=1",
		"repl", "REPL", "info", "INFO", "shards", "reset", "session", "SESSION", "list", "10.0.0.1:7000", "?"}
	words := append(append([]string{}, nativeWords...), respWords...)
	mixCase := func(s string) string {
		b := []byte(s)
		for i := range b {
			if rng.Intn(2) == 0 {
				b[i] ^= 0x20 // command words are ASCII letters
			}
		}
		return string(b)
	}
	for i := 0; i < 600; i++ {
		w := words[rng.Intn(len(words))]
		if rng.Intn(4) == 0 {
			w = mixCase(w)
		}
		n := rng.Intn(6)
		if rng.Intn(20) == 0 {
			n = 6 + rng.Intn(6)
		}
		l := []string{w}
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				l = append(l, strconv.Itoa(rng.Intn(100)))
			} else {
				l = append(l, vocab[rng.Intn(len(vocab))])
			}
		}
		line(l, true, true)
	}
	return out
}

func TestParseGolden(t *testing.T) {
	if *updateGolden {
		var b strings.Builder
		entries := goldenInputs()
		for _, e := range entries {
			fmt.Fprintf(&b, "%s %q -> %s\n", e.form, e.input, goldenOutcome(e.form, e.input))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d entries (seed %d)", len(entries), goldenSeed)
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	entries := 0
	for ln := 1; sc.Scan(); ln++ {
		form, rest, _ := strings.Cut(sc.Text(), " ")
		quoted, qerr := strconv.QuotedPrefix(rest)
		want, ok := strings.CutPrefix(rest[len(quoted):], " -> ")
		if qerr != nil || !ok {
			t.Fatalf("%s:%d: malformed entry", goldenPath, ln)
		}
		input, _ := strconv.Unquote(quoted)
		entries++
		if got := goldenOutcome(form, input); got != want {
			t.Errorf("%s:%d: %s %q\n got %s\nwant %s", goldenPath, ln, form, input, got, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if entries < 5000 {
		t.Fatalf("%s holds %d entries; the recorded corpus has over 5000", goldenPath, entries)
	}
}
