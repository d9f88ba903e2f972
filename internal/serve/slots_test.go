package serve

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coopabft/internal/mat"
)

// These tests hold the execution model from outside: a request runs on the
// goroutine of a caller of Do, its own or another caller's that won a
// concurrency slot, and the service starts no goroutine of its own.

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine 17 [running]:").
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseInt(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// holdOnSecondErr is a context whose second Err() call blocks until release
// is closed. The slot holder asks once before it starts the job and the
// coordinator's step hook once per tick, so the request stops inside the
// ladder, holding its slot, with held closed.
type holdOnSecondErr struct {
	context.Context
	calls         *atomic.Int32
	held, release chan struct{}
}

func newHold() holdOnSecondErr {
	return holdOnSecondErr{context.Background(), new(atomic.Int32), make(chan struct{}), make(chan struct{})}
}

func (c holdOnSecondErr) Err() error {
	if c.calls.Add(1) == 2 {
		close(c.held)
		<-c.release
	}
	return nil
}

// TestServiceStartsNoGoroutine: New starts no goroutine, and a request
// executing inside the ladder adds none to its caller's. A dispatcher
// goroutine per service and an executor goroutine per batch each fail it.
func TestServiceStartsNoGoroutine(t *testing.T) {
	defer mat.SetParallelism(mat.SetParallelism(1)) // no kernel band goroutines
	before := runtime.NumGoroutine()
	s := newTestService(t, Config{MaxConcurrency: 2, QueueDepth: 4, QueueTimeout: time.Minute})
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("New started %d goroutines", after-before)
	}

	base := runtime.NumGoroutine()
	hold := newHold()
	done := make(chan error, 1)
	go func() {
		resp, err := s.Do(hold, Request{Kernel: "gemm", N: 32, Seed: 5})
		if err == nil && !okOutcomes[resp.Outcome] {
			err = errors.New("unclassified outcome " + resp.Outcome)
		}
		done <- err
	}()
	<-hold.held
	if n := runtime.NumGoroutine(); n > base+1 {
		t.Errorf("a request held inside the ladder runs with %d goroutines beside its caller's", n-base-1)
	}
	close(hold.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestCallersShareSlots: many more callers than slots, all queued behind
// held slots before the slots free, half of them as one tenant and then half
// as another (so fair queueing interleaves the tenants and slot holders run
// each other's requests), with every request recorded from inside
// the ladder (the goroutine that runs it, in start order) and the running
// gauge sampled there. No more than MaxConcurrency
// requests ever run at once; every request is answered exactly once, by one
// runner; and no caller runs a second queue head after its own job was
// taken: a head it runs starts after its own job's start only when another
// slot holder ran its job, and then at most once (the head it popped while
// its own was being taken). ci.sh runs it under -race.
func TestCallersShareSlots(t *testing.T) {
	const k, callers = 2, 48
	s := newTestService(t, Config{MaxConcurrency: k, QueueDepth: callers, QueueTimeout: time.Minute})

	type start struct {
		seq    int64
		runner int64
	}
	var (
		mu         sync.Mutex
		seq        int64
		starts     = make(map[int]start)   // request → its start
		runners    = make(map[int][]int64) // request → every goroutine that asked its context
		maxRunning int64
	)
	record := func(id int) {
		g := goid()
		r := s.m.Running.Value()
		mu.Lock()
		defer mu.Unlock()
		maxRunning = max(maxRunning, r)
		if _, ok := starts[id]; !ok {
			seq++
			starts[id] = start{seq, g}
		}
		if rs := runners[id]; len(rs) == 0 || rs[len(rs)-1] != g {
			runners[id] = append(rs, g)
		}
	}

	for range k {
		s.sem <- struct{}{} // every slot held: the callers queue
	}
	owner := make([]int64, callers)
	errs := make([]error, callers)
	outcomes := make([]string, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner[i] = goid()
			resp, err := s.Do(recordingCtx{context.Background(), func() { record(i) }},
				Request{Kernel: "gemm", N: 24, Seed: uint64(i + 1), Tenant: []string{"a", "b"}[2*i/callers]})
			errs[i], outcomes[i] = err, resp.Outcome
		}()
		pollUntil(t, "the caller to queue", func() bool { return s.sched.Len() == i+1 })
	}
	for range k {
		<-s.sem
	}
	wg.Wait()

	if maxRunning > k {
		t.Errorf("%d requests ran at once on %d slots", maxRunning, k)
	}
	for i := range callers {
		if errs[i] != nil || !okOutcomes[outcomes[i]] {
			t.Errorf("request %d: outcome %q, %v", i, outcomes[i], errs[i])
		}
		if rs := runners[i]; len(rs) != 1 {
			t.Errorf("request %d ran on %d goroutines (%v), want one", i, len(rs), rs)
		}
	}
	if got := s.m.Accepted.Value(); got != callers {
		t.Errorf("accepted %d, want %d", got, callers)
	}
	if got := s.m.Corrected.Value() + s.m.Restarted.Value() + s.m.Aborted.Value(); got != callers {
		t.Errorf("%d outcomes counted for %d requests", got, callers)
	}
	shared := 0
	for c := range callers {
		own := starts[c]
		if own.runner != owner[c] {
			shared++
		}
		late := 0
		for j, st := range starts {
			if j != c && st.runner == owner[c] && st.seq > own.seq {
				late++
			}
		}
		if own.runner == owner[c] && late > 0 || late > 1 {
			t.Errorf("caller %d ran %d heads after its own job (run by %s) started",
				c, late, map[bool]string{true: "itself", false: "another caller"}[own.runner == owner[c]])
		}
	}
	if shared == 0 {
		t.Error("every caller ran its own request: the slots were never shared, and the check above proves nothing")
	}
	t.Logf("%d of %d requests ran on another caller's goroutine", shared, callers)
}

// recordingCtx calls rec on every Err(): from the slot holder before it
// starts the job, and from the coordinator's step hook once per tick.
type recordingCtx struct {
	context.Context
	rec func()
}

func (c recordingCtx) Err() error {
	c.rec()
	return nil
}

// TestCloseFailsParkedCallers: with the only slot held by a request inside
// the ladder and callers parked in the queue, Close answers each parked
// caller ErrClosed, waits for the running request, which completes
// classified, and leaves no goroutine behind.
func TestCloseFailsParkedCallers(t *testing.T) {
	defer mat.SetParallelism(mat.SetParallelism(1))
	const parked = 6
	s := New(Config{MaxConcurrency: 1, QueueDepth: parked, QueueTimeout: time.Minute})
	base := runtime.NumGoroutine()

	hold := newHold()
	held := make(chan error, 1)
	go func() {
		resp, err := s.Do(hold, Request{Kernel: "gemm", N: 32, Seed: 1})
		if err == nil && !okOutcomes[resp.Outcome] {
			err = errors.New("unclassified outcome " + resp.Outcome)
		}
		held <- err
	}()
	<-hold.held
	errs := make(chan error, parked)
	for i := range parked {
		go func() {
			_, err := s.Do(context.Background(), Request{Kernel: "gemm", N: 16, Seed: uint64(i + 2)})
			errs <- err
		}()
	}
	pollUntil(t, "the callers to park", func() bool { return s.sched.Len() == parked })

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	for range parked {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Errorf("parked caller: %v, want ErrClosed", err)
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a request was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(hold.release)
	if err := <-held; err != nil {
		t.Errorf("running request: %v", err)
	}
	<-closed
	pollUntil(t, "the goroutine count to return to its baseline", func() bool { return runtime.NumGoroutine() <= base })
}

// TestSlotHolderPastDeadlineTakesNoHead: a caller whose context has ended
// while it holds a slot takes no further head: it gives the slot back, and
// its Do abandons its own job, instead of running other callers' requests
// long past its own deadline. The queued request is then run by its own
// caller, not by the one past its deadline.
func TestSlotHolderPastDeadlineTakesNoHead(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4, QueueTimeout: time.Minute})
	s.sem <- struct{}{} // the only slot, won by the caller below
	var runner atomic.Int64
	done := make(chan error, 1)
	go func() {
		ctx := recordingCtx{context.Background(), func() { runner.CompareAndSwap(0, goid()) }}
		_, err := s.Do(ctx, Request{Kernel: "gemm", N: 16, Seed: 1})
		done <- err
	}()
	pollUntil(t, "the request to queue", func() bool { return s.sched.Len() == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.work(&job{ctx: ctx}) // a queued job whose caller's deadline has passed
	if err := <-done; err != nil {
		t.Fatalf("the queued request, once the slot was given back: %v", err)
	}
	if runner.Load() == goid() {
		t.Error("a slot holder past its deadline ran another caller's queued request")
	}
}
