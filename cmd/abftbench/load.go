package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"coopabft/internal/serve"
)

// clients is the closed-loop caller count: callers of a compute RPC wait
// for the reply, and two of them equal nproc on the reference host.
const clients = 2

// tally accumulates what the replies of a timed run report about the layers
// beneath the wire: the ladder's counters the Response carries, and the
// time requests waited versus ran on the worker.
type tally struct {
	sent, answered, failed, wrong int

	corrected, restarted, aborted                    int
	corrections, restarts, hwCorrected, degradations int
	queueMS, runMS                                   float64
	gwRetries                                        int
	votes, voteAgree                                 int
	reqBytes, respBytes                              int

	// problems describes the first few replies that were not answers.
	problems []string
}

// maxProblems caps the failed replies a tally describes.
const maxProblems = 8

func (t *tally) add(o tally) {
	t.sent += o.sent
	t.answered += o.answered
	t.failed += o.failed
	t.wrong += o.wrong
	t.corrected += o.corrected
	t.restarted += o.restarted
	t.aborted += o.aborted
	t.corrections += o.corrections
	t.restarts += o.restarts
	t.hwCorrected += o.hwCorrected
	t.degradations += o.degradations
	t.queueMS += o.queueMS
	t.runMS += o.runMS
	t.gwRetries += o.gwRetries
	t.votes += o.votes
	t.voteAgree += o.voteAgree
	t.reqBytes += o.reqBytes
	t.respBytes += o.respBytes
	t.problems = append(t.problems, o.problems[:min(len(o.problems), maxProblems-len(t.problems))]...)
}

// record folds one classified reply into the tally.
func (t *tally) record(req serve.Request, v verdict, r reply) {
	t.sent++
	t.reqBytes += r.reqBytes
	t.respBytes += r.respBytes
	if v != answered && len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf("%s n=%d seed=%d integrity=%q faults=%d: HTTP %d, outcome %q, error %q %v",
			req.Kernel, req.N, req.Seed, req.Integrity, req.Faults, r.status, r.resp.Outcome, r.resp.Error, r.err))
	}
	switch v {
	case wrong:
		t.wrong++
		return
	case failed:
		t.failed++
		if r.resp.Outcome == "aborted" {
			t.aborted++
		}
		return
	}
	t.answered++
	if r.resp.Outcome == "restarted" {
		t.restarted++
	} else {
		t.corrected++
	}
	t.corrections += r.resp.Corrections
	t.restarts += r.resp.Restarts
	t.hwCorrected += r.resp.HWCorrected
	t.degradations += r.resp.Degradations
	t.queueMS += r.resp.QueueMS
	t.runMS += r.resp.RunMS
	t.gwRetries += r.resp.GatewayRetries
	if r.resp.VoteReplicas > 0 {
		t.votes++
		t.voteAgree += r.resp.VoteAgree
	}
}

// counters are the services' own expvar counters the timed run reads as
// deltas: admission at the workers, placement at the gateway.
type counters struct {
	accepted, rejected            int64
	gwRequests, gwRetries, gwShed int64
}

func (st *stack) counters() counters {
	var c counters
	for _, svc := range st.svcs {
		m := svc.Metrics()
		c.accepted += m.Accepted.Value()
		c.rejected += m.Rejected.Value()
	}
	gm := st.gw.Metrics()
	c.gwRequests = gm.Requests.Value()
	c.gwRetries = gm.Retries.Value()
	c.gwShed = gm.Overloaded.Value()
	return c
}

func (c counters) sub(o counters) counters {
	return counters{c.accepted - o.accepted, c.rejected - o.rejected,
		c.gwRequests - o.gwRequests, c.gwRetries - o.gwRetries, c.gwShed - o.gwShed}
}

func (c *counters) add(o counters) {
	c.accepted += o.accepted
	c.rejected += o.rejected
	c.gwRequests += o.gwRequests
	c.gwRetries += o.gwRetries
	c.gwShed += o.gwShed
}

// round is one timed, untraced closed-loop run of a workload.
type round struct {
	wallS   float64
	latMS   []float64 // successes only, unsorted
	cpuMS   float64   // process user+system CPU over the round
	allocKB float64   // runtime.MemStats.TotalAlloc delta
	bare    []float64 // ms per kernel of the calibration sample: the faster of the runs before and after
	tally
	counters
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // unreachable on Linux with a valid who; cpu_ms_per_req would read 0 and fail the never-zero rule
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrationSample is the number of requests whose bare kernels are timed
// before each round, rounded up to whole mix cycles so the sample has the
// mix's proportions.
func (w *workload) calibrationSample() int {
	n := len(w.cycle)
	return (16 + n - 1) / n * n
}

// calibrate times the unprotected kernels of a fixed sample of the mix,
// single-threaded, and returns each one's time in ms.
func (w *workload) calibrate(seed uint64) []float64 {
	out := make([]float64, w.calibrationSample())
	for i := range out {
		_, req := w.request(seed, 0, i, clients)
		b := bare(req, 3)
		if b.d < 100*time.Microsecond {
			b = bare(req, 30) // a kernel this short needs more tries to find its floor
		}
		out[i] = ms(b.d)
	}
	return out
}

// floor folds calibration b into a, keeping each kernel's faster time.
func floor(a, b []float64) []float64 {
	if a == nil {
		return append(a, b...)
	}
	for i := range a {
		a[i] = min(a[i], b[i])
	}
	return a
}

// bareFloorMS is the mean bare-kernel time of the calibration sample, each
// kernel at the fastest it ran in any calibration of the run. Interference
// from the host's other tenants only ever slows a kernel, and it comes and
// goes within tens of milliseconds, so one calibration reads up to 2× high
// while the floor over a run's worth repeats within a few percent.
func bareFloorMS(rounds []round) float64 {
	var f []float64
	for _, r := range rounds {
		f = floor(f, r.bare)
	}
	return mean(f)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runRound drives the gateway with the closed-loop clients for d. next holds
// each client's position in its request sequence and is advanced, so
// successive rounds replay successive stretches of the same sequence.
func runRound(st *stack, w *workload, seed uint64, next []int, d time.Duration) round {
	var r round
	// Collect first: every round starts from the same heap state, and no
	// background collection of the previous round's garbage competes with
	// the single-threaded calibration.
	runtime.GC()
	r.bare = w.calibrate(seed)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := st.counters()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)

	parts := make([]round, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			p := &parts[c]
			for time.Now().Before(deadline) {
				_, req := w.request(seed, c, next[c], clients)
				next[c]++
				t := time.Now()
				rep := cl.post(st.gwURL, req)
				lat := time.Since(t)
				v := classify(req, rep)
				p.record(req, v, rep)
				if v == answered {
					p.latMS = append(p.latMS, ms(lat))
				}
			}
		}(c)
	}
	wg.Wait()

	r.wallS = time.Since(start).Seconds()
	r.cpuMS = ms(cpuTime() - cpu0)
	r.counters = st.counters().sub(c0)
	runtime.ReadMemStats(&m1)
	r.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	for _, p := range parts {
		r.tally.add(p.tally)
		r.latMS = append(r.latMS, p.latMS...)
	}
	runtime.GC()
	r.bare = floor(r.bare, w.calibrate(seed))
	return r
}

// warmUp sends the workload's discarded warm-up requests through the
// gateway at concurrency 1, so caches fill, pools grow and lazy set-up
// finishes before anything is timed. Its replies still count for
// correctness.
func warmUp(st *stack, w *workload, seed uint64, n int) tally {
	var t tally
	cl := newClient()
	defer cl.close()
	for i := 0; i < n; i++ {
		// Client index `clients` is a sequence no timed client replays.
		_, req := w.request(seed, clients, i, clients+1)
		rep := cl.post(st.gwURL, req)
		t.record(req, classify(req, rep), rep)
	}
	return t
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// iqr is the distance between the first and third quartiles of xs, as
// Python's statistics.quantiles(xs, n=4) places them.
func iqr(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		pos := float64(i) * float64(len(s)+1) / 4 // 1-based, may fall between points
		j := max(1, min(int(pos), len(s)-1))
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	if len(s) < 2 {
		return 0
	}
	return q(3) - q(1)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return math.NaN()
}

// endToEnd computes one round's end-to-end metrics by name, all but
// overhead_x, whose denominator belongs to the whole run.
func (r round) endToEnd() map[string]float64 {
	lat := append([]float64(nil), r.latMS...)
	sort.Float64s(lat)
	n := float64(r.answered)
	return map[string]float64{
		"throughput_rps":   n / r.wallS,
		"latency_p50_ms":   percentile(lat, 50),
		"latency_p95_ms":   percentile(lat, 95),
		"cpu_ms_per_req":   r.cpuMS / n,
		"alloc_kb_per_req": r.allocKB / n,
	}
}

// meanLatMS is the round's mean request latency, overhead_x's numerator.
func (r round) meanLatMS() float64 { return mean(r.latMS) }
