package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"vccmin/internal/engine"
	"vccmin/internal/service"
)

// server hosts one service.Server in-process on loopback, with the
// default service.Config over a fresh data directory.
type server struct {
	svc  *service.Server
	http *http.Server
	base string // http://127.0.0.1:port
	done chan error
}

// startServer starts a server whose data directory is a new temporary
// directory under root. wrap, when set, wraps the service's handler
// (the traced run's span recorder).
func startServer(root string, wrap func(http.Handler) http.Handler) (*server, error) {
	dir, err := os.MkdirTemp(root, "data-")
	if err != nil {
		return nil, fmt.Errorf("data dir: %w", err)
	}
	svc, err := service.New(service.Config{DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("service: %w", err)
	}
	h := svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:  svc,
		http: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, drains and closes the service. It
// returns once the serve goroutine has exited. The data directory stays
// (see run).
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := s.svc.Drain(ctx); derr != nil && err == nil {
		err = derr
	}
	s.svc.Close()
	return err
}

// stats fetches /v1/stats.
func (s *server) stats(hc *http.Client) (service.Stats, error) {
	var st service.Stats
	resp, err := hc.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.Unmarshal(b, &st)
}

// engineDelta is after − before per task kind.
func engineDelta(before, after map[string]engine.KindStats) map[string]engine.KindStats {
	out := make(map[string]engine.KindStats)
	for kind, a := range after {
		b := before[kind]
		d := engine.KindStats{
			Hits:          a.Hits - b.Hits,
			DiskHits:      a.DiskHits - b.DiskHits,
			Misses:        a.Misses - b.Misses,
			InflightWaits: a.InflightWaits - b.InflightWaits,
			Errors:        a.Errors - b.Errors,
			DiskErrors:    a.DiskErrors - b.DiskErrors,
		}
		if d != (engine.KindStats{}) {
			out[kind] = d
		}
	}
	return out
}
