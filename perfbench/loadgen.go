package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is the outcome of one sent request. Due is when the plan meant
// it to go out (the schedule in an open loop, the previous completion
// on the same connection in a closed loop), Issued when the generator
// released it, Sent when a connection began sending it and Done when
// its response was read. Status is 0 for a transport failure.
type sample struct {
	Index  int
	Kind   string
	Status int
	Due    time.Time
	Issued time.Time
	Sent   time.Time
	Done   time.Time
	// Closed marks a closed-loop request, whose caller waited for the
	// previous reply and so times it from its actual send.
	Closed bool
	// Span is the request's span when it was traced, else 0.
	Span int
	// Body is kept only for the entries the caller asks for.
	Body []byte
}

func (s sample) ok() bool { return s.Status >= 200 && s.Status < 300 }

// latency is the request's latency: from its scheduled send in an open
// loop, which counts the wait a stall imposes on later requests, and
// from its actual send in a closed loop.
func (s sample) latency() time.Duration {
	if s.Closed {
		return s.Done.Sub(s.Sent)
	}
	return s.Done.Sub(s.Due)
}

// late is how far behind its plan the generator released the request.
func (s sample) late() time.Duration { return s.Issued.Sub(s.Due) }

// client is one keep-alive connection to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(o op) (int, []byte, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if o.Body != nil {
		method, body = http.MethodPost, bytes.NewReader(o.Body)
	}
	req, err := http.NewRequest(method, c.base+o.Path, body)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-API-Key", o.Key)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// mustDo sends one request that has to succeed.
func (c *client) mustDo(o op) ([]byte, error) {
	status, b, err := c.do(o)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", o.Kind, o.Path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", o.Kind, o.Path, status, b)
	}
	return b, nil
}

// send fills s by sending o on c, recording a client span when traced.
func (c *client) send(s *sample, o op, keep bool, tr *tracer) {
	s.Kind = o.Kind
	s.Sent = time.Now()
	status, body, err := c.do(o)
	s.Done = time.Now()
	if err == nil {
		s.Status = status
		if keep {
			s.Body = body
		}
	}
	s.Span = tr.add("request", s.Index, 0, s.Sent, s.Done)
}

// spinWindow is the stretch before a due time the pacer yields in a
// loop instead of sleeping: the runtime's timers wake an idle process
// up to about a millisecond late, nanosleep tens of microseconds late.
const spinWindow = 100 * time.Microsecond

// sleepUntil blocks until t, to within a few microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop sleeps again
			continue
		}
		runtime.Gosched()
	}
}

// openLoop sends plan entries first..first+n-1 on a fixed schedule,
// entry first+k due at start + k/rate, whatever the server's progress:
// a free connection takes the oldest due entry, so a stalled server
// builds a backlog whose wait counts in every later latency.
func openLoop(clients []*client, first, n int, rate float64, plan func(int) op, keep func(int) bool, tr *tracer) []sample {
	out := make([]sample, n)
	// Sized to the number of sends, so the pacer never blocks on a
	// stalled server and keeps to its schedule.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for k := range queue {
				i := first + k
				c.send(&out[k], plan(i), keep != nil && keep(i), tr)
			}
		}(c)
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		sleepUntil(due)
		out[k].Index, out[k].Due, out[k].Issued = first+k, due, time.Now()
		queue <- k
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop sends plan entries from first on, each connection sending
// its next entry as soon as its previous response is read; entries are
// handed out in plan order across connections, and a connection stops
// at the first entry done reports.
func closedLoop(clients []*client, first int, done func(i int) bool, plan func(int) op, keep func(int) bool, tr *tracer) []sample {
	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			prev := time.Now()
			for {
				i := int(next.Add(1) - 1)
				if done(i) {
					return
				}
				s := sample{Index: i, Due: prev, Issued: time.Now(), Closed: true}
				c.send(&s, plan(i), keep != nil && keep(i), tr)
				per[w] = append(per[w], s)
				prev = s.Done
			}
		}(w, c)
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// probeSlice is how long a probed closed loop runs between two host
// probes.
const probeSlice = 500 * time.Millisecond

// probedLoop is a closed loop from plan entry first until stop reports
// an entry, paused every probeSlice to probe the host while no request
// is in flight. stop must stay true once it is. It returns the samples
// and the loop's wall time without the pauses.
func probedLoop(p *hostProbe, clients []*client, first int, stop func(i int) bool, plan func(int) op) ([]sample, time.Duration) {
	var out []sample
	var active time.Duration
	for {
		until := time.Now().Add(probeSlice)
		ss := closedLoop(clients, first, func(i int) bool { return stop(i) || time.Now().After(until) }, plan, nil, nil)
		out = append(out, ss...)
		active += wall(ss)
		first += len(ss)
		p.measure()
		if stop(first) {
			return out, active
		}
	}
}

// after returns a closed loop's stop condition for a deadline d from
// now.
func after(d time.Duration) func(int) bool {
	until := time.Now().Add(d)
	return func(int) bool { return time.Now().After(until) }
}

// latenciesMs returns the latencies of the samples that pass keep, in
// milliseconds, ascending. A failed request counts as +Inf: it misses
// every latency limit.
func latenciesMs(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep != nil && !keep(s) {
			continue
		}
		if !s.ok() {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(s.latency()))
	}
	sort.Float64s(out)
	return out
}

// countOK counts the successful samples that pass keep.
func countOK(ss []sample, keep func(sample) bool) int {
	ok := 0
	for _, s := range ss {
		if (keep == nil || keep(s)) && s.ok() {
			ok++
		}
	}
	return ok
}

// wall returns the time from the first due send to the last response.
func wall(ss []sample) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	lo, hi := ss[0].Due, ss[0].Done
	for _, s := range ss {
		if s.Due.Before(lo) {
			lo = s.Due
		}
		if s.Done.After(hi) {
			hi = s.Done
		}
	}
	return hi.Sub(lo)
}

// busy returns the summed latency of samples sent one after another,
// leaving out the pauses between them.
func busy(ss []sample) time.Duration {
	var d time.Duration
	for _, s := range ss {
		d += s.latency()
	}
	return d
}

// lateMs returns the generator's lateness per sample in milliseconds,
// ascending.
func lateMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.late())
	}
	sort.Float64s(out)
	return out
}

// chunked runs four chunks of a phase, the second and fourth traced,
// each starting at the plan entry after the previous chunk's last. It
// returns every sample, the untraced median latency of the samples that
// pass keep, and the traced median's excess over it.
func chunked(r *run, keep func(sample) bool, phase func(first int, tr *tracer) []sample) ([]sample, float64, float64) {
	var all, plain, traced []sample
	first := 0
	for c := 0; c < 4; c++ {
		tr := (*tracer)(nil)
		if c%2 == 1 {
			tr = r.tr
		}
		ss := phase(first, tr)
		first += len(ss)
		all = append(all, ss...)
		if tr == nil {
			plain = append(plain, ss...)
		} else {
			traced = append(traced, ss...)
		}
	}
	p := percentile(latenciesMs(plain, keep), 50)
	return all, p, percentile(latenciesMs(traced, keep), 50)/p - 1
}
