// protopipe: the wire codec's client side, on the proto package's
// exported surface. An in-process cache server is driven over real TCP
// by two clients sharing one store: a native-protocol client that
// pipelines a whole burst of requests into a single write (one round
// trip for the lot — the network-layer analogue of the paper's
// batched critical sections), and a RESP client speaking the framing
// redis-cli uses. Both render requests with Adapter.AppendRequest, so
// neither hand-formats a single wire byte.
//
//	go run ./examples/protopipe
package main

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"strings"

	"tsp/internal/cacheserver"
	"tsp/internal/proto"
)

func main() {
	srv, err := cacheserver.New(cacheserver.WithShards(2))
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	addr := srv.Addr().String()

	// --- native client: one pipelined burst, one write, one round trip.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	na := proto.Native{}
	var buf []byte
	burst := []proto.Request{
		{Cmd: proto.CmdMSet, KV: []uint64{1, 100, 2, 200, 3, 300}},
		{Cmd: proto.CmdIncr, KV: []uint64{1, 11}},
		{Cmd: proto.CmdCrash},
		{Cmd: proto.CmdMGet, KV: []uint64{1, 2, 3}},
	}
	for i := range burst {
		buf = na.AppendRequest(buf, &burst[i])
	}
	if _, err := conn.Write(buf); err != nil {
		log.Fatal(err)
	}
	fmt.Println("native burst (4 requests, 1 write):")
	// Replies: STORED 3, the incr result, OK RECOVERED EPOCH <p> (the
	// recovered durability frontier, DESIGN.md §8), then the mget's
	// VALUE lines up to END — 3 single-line replies plus a multi-line one.
	for single := 0; single < 3; single++ {
		line, err := r.ReadString('\n')
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", strings.TrimSpace(line))
	}
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", strings.TrimSpace(line))
		if strings.TrimSpace(line) == "END" {
			break
		}
	}

	// --- RESP client: same store, redis framing, sniffed from the
	// first byte of the connection.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn2.Close()
	r2 := bufio.NewReader(conn2)

	re := proto.RESP{}
	buf = buf[:0]
	get := proto.Request{Cmd: proto.CmdGet, KV: []uint64{1}}
	ping := proto.Request{Cmd: proto.CmdPing}
	buf = re.AppendRequest(buf, &get)
	buf = re.AppendRequest(buf, &ping)
	if _, err := conn2.Write(buf); err != nil {
		log.Fatal(err)
	}
	fmt.Println("RESP pipeline (GET 1, PING):")
	// $-header + body line for the bulk reply, then +PONG.
	for i := 0; i < 3; i++ {
		line, err := r2.ReadString('\n')
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", strings.TrimSpace(line))
	}
	fmt.Println("same store, two protocols, zero hand-formatted bytes — value 111 survived the crash")
}
