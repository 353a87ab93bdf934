package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/cmd/ereeserve/config"
	"repro/cmd/ereeserve/server"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/lodes"
	"repro/internal/privacy"
)

// setups is how many times a run sets its stack up; setup_s is the
// median.
const setups = 5

// warmSeqBase numbers warm-up requests apart from plan entries.
const warmSeqBase = 1 << 29

// stack is one booted release service: the epoch-0 dataset it was
// built from, its publisher and tenant registry, and the server
// listening on a loopback port.
type stack struct {
	data *lodes.Dataset
	pub  *core.Publisher
	reg  *privacy.Registry
	srv  *server.Server
	svc  *server.Service
	base string
	// stateDir is the durable server's state directory ("" in memory).
	stateDir string
}

// generate builds the dataset of a generator configuration from seed
// 1, the dataset every workload serves, recording a lodes.generate span
// when traced.
func generate(cfg lodes.Config, tr *tracer) (*lodes.Dataset, error) {
	var d *lodes.Dataset
	_, err := tr.time("lodes.generate", -1, 0, func() error {
		var err error
		d, err = lodes.Generate(cfg, dist.NewStreamFromSeed(1))
		return err
	})
	return d, err
}

// boot serves data the way cmd/ereeserve does with the demo
// configuration: the demo tenants and seeds, durable accounting under
// stateDir when it is set (server.Open), in memory otherwise
// (server.New), listening on a free loopback port.
func boot(data *lodes.Dataset, pub *core.Publisher, stateDir string, delta *lodes.DeltaConfig) (*stack, error) {
	cfg := config.Demo()
	reg, err := cfg.BuildRegistry()
	if err != nil {
		return nil, err
	}
	if pub == nil {
		pub = core.NewPublisher(data)
	}
	opts := server.Options{
		NoiseSeed: cfg.NoiseSeed, AdminKey: cfg.AdminKey, DeltaSeed: cfg.DeltaSeed,
		DeltaConfig: delta, StateDir: stateDir,
	}
	var srv *server.Server
	if stateDir == "" {
		srv = server.New(pub, reg, opts)
	} else if srv, err = server.Open(pub, reg, opts); err != nil {
		return nil, err
	}
	svc, err := srv.Start("127.0.0.1:0", server.RunOptions{})
	if err != nil {
		return nil, err
	}
	return &stack{data: data, pub: pub, reg: reg, srv: srv, svc: svc, base: "http://" + svc.Addr(), stateDir: stateDir}, nil
}

// shutdown drains the server and waits for its serve loop to end.
func (s *stack) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.svc.Shutdown(ctx)
	if derr := <-s.svc.Done(); err == nil {
		err = derr
	}
	return err
}

// setUp builds a workload's stack n times, shutting all but the last
// down, and returns the last with every set-up time. The host is probed
// after each build.
func setUp(n int, p *hostProbe, build func() (*stack, error)) (*stack, []float64, error) {
	var times []float64
	var st *stack
	for k := 0; k < n; k++ {
		if st != nil {
			if err := st.shutdown(); err != nil {
				return nil, nil, err
			}
			st = nil
		}
		start := time.Now()
		var err error
		if st, err = build(); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		p.measure()
	}
	return st, times, nil
}

// statsView is the part of GET /v1/stats the checks read.
type statsView struct {
	SpentEps   float64 `json:"spent_eps"`
	SpentDelta float64 `json:"spent_delta"`
	Releases   int     `json:"releases"`
	Epoch      int     `json:"epoch"`
}

func fetchStats(c *client, key string) (statsView, error) {
	b, err := c.mustDo(statsOp(key))
	if err != nil {
		return statsView{}, err
	}
	return decodeStats(b)
}

func decodeStats(b []byte) (statsView, error) {
	var v statsView
	if err := json.Unmarshal(b, &v); err != nil {
		return v, fmt.Errorf("decode stats: %w", err)
	}
	return v, nil
}

// cacheTotals sums the publisher's per-epoch cache hits and misses.
func cacheTotals(pub *core.Publisher) (hits, misses int64) {
	for _, cs := range pub.CacheStatsByEpoch() {
		hits += cs.Hits
		misses += cs.Misses
	}
	return hits, misses
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// freshDir makes a new empty directory under the run's output
// directory.
func (r *run) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(r.outDir, prefix)
}

// clients opens n loopback connections to the stack.
func (s *stack) clients(n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient(s.base)
	}
	return cs
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// warm releases each marginal once, then sends more releases spread
// over them until total, so caches, connections and code paths are warm
// before the first measured request. It returns the releases made.
func warm(st *stack, sets [][]string, total int) (int, error) {
	c := newClient(st.base)
	defer c.close()
	for k := 0; k < total; k++ {
		o := releaseOp(keyAlpha, wireRelease{Attrs: sets[k%len(sets)], Mechanism: "smooth-gamma", Alpha: 0.1, Eps: 0.5}, int64(warmSeqBase+k))
		if _, err := c.mustDo(o); err != nil {
			return k, fmt.Errorf("warm-up: %w", err)
		}
	}
	return total, nil
}
