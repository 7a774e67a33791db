package cacheserver

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"tsp/internal/telemetry"
)

// statsSources sets the gauges only the server can read and returns
// every telemetry section its surfaces render: `stats`, `stats shards`,
// `stats reset` and /metrics all go through here. The replication and
// cluster sections render only while the server has that role.
func (s *Server) statsSources() []telemetry.Source {
	regs := make([]*telemetry.Registry, len(s.shards))
	for i, sh := range s.shards {
		sh.refreshGauges()
		regs[i] = sh.tel
	}
	s.tel.EpochCurrent.Store(s.curEpoch.Load())
	s.tel.EpochPersisted.Store(s.perEpoch.Load())
	srcs := []telemetry.Source{telemetry.ServerRows.Bind(&s.tel), telemetry.RegistryRows.Bind(regs...)}
	if role := s.replRole(); role != "" {
		t := s.replTel
		t.SetRole(role)
		if s.replPrimary != nil {
			t.Followers.Store(uint64(s.replPrimary.Followers()))
			gen, seq := s.replLog.Position()
			t.LogGen.Store(gen)
			t.LogSeq.Store(seq)
		}
		if s.replFollower != nil {
			gen, seq := s.replFollower.Position()
			t.PosGen.Store(gen)
			t.PosSeq.Store(seq)
		}
		srcs = append(srcs, telemetry.ReplRows.Bind(t))
	}
	if st := s.clusterSt; st != nil {
		st.tel.Epoch.Store(st.epoch.Load())
		st.tel.SlotsOwned.Store(uint64(len(st.slotsIn(slotOwned))))
		srcs = append(srcs, telemetry.ClusterRows.Bind(st.tel))
	}
	return srcs
}

// metricsServer is the optional HTTP side-channel: the telemetry rows as
// Prometheus-style text at /metrics (hand-rolled on net/http; the repo
// takes no dependencies) and the runtime profiles at /debug/pprof/. It
// listens on its own address so scraping never competes with the cache
// protocol for connection slots.
type metricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// startMetrics binds addr and begins serving in the background. Serve
// errors after close are expected and discarded.
func startMetrics(s *Server, addr string) (*metricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cacheserver: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.Prometheus(w, s.statsSources()...)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	m := &metricsServer{ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = m.srv.Serve(ln) }()
	return m, nil
}

func (m *metricsServer) addr() net.Addr { return m.ln.Addr() }

func (m *metricsServer) close() { _ = m.srv.Close() }
