package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"coopabft/internal/checkpoint"
	"coopabft/internal/core"
	"coopabft/internal/machine"
	"coopabft/internal/mat"
	"coopabft/internal/recovery"
	"coopabft/internal/serve"
)

// Global probes measure one layer each on a fixed input that belongs to no
// workload's mix. They move no end-to-end metric today; they are recorded so
// a later workload can adopt them with a baseline already in hand.

// minOf returns the fastest of reps runs of f.
func minOf(reps int, f func()) time.Duration {
	best := time.Duration(0)
	for r := 0; r < reps; r++ {
		best = minDur(r, best, f)
	}
	return best
}

func gflops(n int, d time.Duration) float64 {
	return 2 * float64(n) * float64(n) * float64(n) / d.Seconds() / 1e9
}

// kernelProbes measures the packed kernels' rate and what the fused
// checksum accumulation costs on top, interleaved min-of-5 so both sides
// see the same host state.
func kernelProbes(out map[string]float64, seed uint64, big int) {
	const n = 192
	a, b, c := mat.Random(n, n, seed), mat.Random(n, n, seed+1), mat.New(n, n)
	fs := &mat.FusedSums{RowSums: make([]float64, n), ColSums: make([]float64, n),
		ASums: make([]float64, n), BSums: make([]float64, n)}
	a32, b32, c32 := mat.Random32(n, n, seed), mat.Random32(n, n, seed+1), mat.New32(n, n)
	fs32 := &mat.FusedSums32{RowSums: make([]float64, n), ColSums: make([]float64, n),
		AbsRowSums: make([]float64, n), AbsColSums: make([]float64, n),
		ASums: make([]float64, n), BSums: make([]float64, n)}

	runtime.GC() // no background collection while single-threaded kernels are timed
	var plain, fused, plain32, fused32 time.Duration
	for r := 0; r < 5; r++ {
		plain = minDur(r, plain, func() { c.Zero(); mat.MulAddInto(c, a, b) })
		fused = minDur(r, fused, func() { c.Zero(); mat.MulAddIntoFused(c, a, b, fs) })
		plain32 = minDur(r, plain32, func() { c32.Zero(); mat.MulAddInto32(c32, a32, b32) })
		fused32 = minDur(r, fused32, func() { c32.Zero(); mat.MulAddIntoFused32(c32, a32, b32, fs32) })
	}
	out["mat.gemm_f64_n192_gflops"] = gflops(n, plain)
	out["mat.gemm_f32_n192_gflops"] = gflops(n, plain32)
	out["mat.fused_tax_pct"] = (fused.Seconds()/plain.Seconds() - 1) * 100
	out["mat.fused32_tax_pct"] = (fused32.Seconds()/plain32.Seconds() - 1) * 100

	ab, bb, cb := mat.Random(big, big, seed), mat.Random(big, big, seed+1), mat.New(big, big)
	out["mat.gemm_f64_n1024_gflops"] = gflops(big, minOf(2, func() { mat.MulInto(cb, ab, bb) }))
}

// minDur folds one more timed run of f into a running minimum.
func minDur(round int, best time.Duration, f func()) time.Duration {
	if _, d := timed(f); round == 0 || d < best {
		return d
	}
	return best
}

// batchProbe measures what the batching stage costs and buys on small f64
// GEMMs: four concurrent callers against a private service with the 2 ms
// batch window, against the same traffic with batching off.
func batchProbe(out map[string]float64, seed uint64) error {
	run := func(window time.Duration) (meanMS, meanBatch float64, err error) {
		svc := serve.New(serve.Config{Parallelism: 1, BatchWindow: window})
		defer svc.Close()
		const callers, each = 4, 6
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					req := serve.Request{Kernel: "gemm", N: 48, Seed: seed + uint64(c*each+i)}
					var resp serve.Response
					var derr error
					_, d := timed(func() { resp, derr = svc.Do(context.Background(), req) })
					mu.Lock()
					if derr != nil && err == nil {
						err = fmt.Errorf("batch probe: %w", derr)
					}
					meanMS += ms(d) / (callers * each)
					meanBatch += float64(resp.BatchSize) / (callers * each)
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		return meanMS, meanBatch, err
	}
	off, _, err := run(0)
	if err != nil {
		return err
	}
	on, size, err := run(2 * time.Millisecond)
	if err != nil {
		return err
	}
	out["serve.batch_hold_ms"] = on - off
	out["serve.batch_size_mean"] = size
	return nil
}

// awaitJob polls a gateway job to a terminal state.
func awaitJob(st *stack, req serve.Request) (serve.JobStatus, time.Duration, error) {
	start := time.Now()
	js, err := st.gw.SubmitJob(req)
	if err != nil {
		return js, 0, err
	}
	for time.Since(start) < time.Minute {
		if js, err = st.gw.JobStatusOf(js.ID); err != nil {
			return js, 0, err
		}
		switch js.State {
		case serve.JobDone:
			return js, time.Since(start), nil
		case serve.JobFailed, serve.JobCancelled:
			return js, 0, fmt.Errorf("job %s %s: %s", js.ID, js.State, js.Error)
		}
		time.Sleep(time.Millisecond)
	}
	return js, 0, fmt.Errorf("job %s still %s after a minute", js.ID, js.State)
}

// jobProbes runs one sharded GEMM and one long CG job through the gateway's
// jobs API.
func jobProbes(out map[string]float64, st *stack, seed uint64, shardN int) error {
	js, d, err := awaitJob(st, serve.Request{Kernel: "gemm", N: shardN, Seed: seed})
	if err != nil {
		return err
	}
	if !js.Sharded {
		return fmt.Errorf("n=%d job was not sharded", shardN)
	}
	a, b, c := mat.Random(shardN, shardN, seed), mat.Random(shardN, shardN, seed+1), mat.New(shardN, shardN)
	kernel := minOf(2, func() { mat.MulInto(c, a, b) })
	out["cluster.shard_job_n512_ms"] = ms(d)
	out["cluster.shard_vs_kernel_x"] = d.Seconds() / kernel.Seconds()

	js, d, err = awaitJob(st, serve.Request{Kernel: "cg", NX: 24, NY: 24, Seed: seed})
	if err != nil {
		return err
	}
	out["cluster.longjob_cg_ms"] = ms(d)
	out["cluster.longjob_checkpoints"] = float64(js.Checkpoints)
	return nil
}

// voteProbe sends the same f64 GEMM through the gateway with and without
// each integrity mode and reports the latency ratios.
func voteProbe(out map[string]float64, st *stack, seed uint64) error {
	cl := newClient()
	defer cl.close()
	modes := []string{"", "vote", "verify-vote"}
	lat := make([][]float64, len(modes))
	for i := 0; i < 9; i++ {
		for m, mode := range modes {
			req := gemm(64, "", "fused", mode, 0, "")
			req.Seed = seed + uint64(i)
			var rep reply
			_, d := timed(func() { rep = cl.post(st.gwURL, req) })
			if classify(req, rep) != answered {
				return fmt.Errorf("vote probe: integrity %q not answered: status %d %v %s",
					mode, rep.status, rep.err, rep.resp.Error)
			}
			lat[m] = append(lat[m], ms(d))
		}
	}
	out["cluster.vote_x"] = median(lat[1]) / median(lat[0])
	out["cluster.verify_vote_x"] = median(lat[2]) / median(lat[0])
	return nil
}

// checkpointProbe times the wire codec on the snapshot a 24×24 CG solve
// streams: the state a long job ships on every checkpoint and migration.
func checkpointProbe(out map[string]float64, seed uint64) error {
	rt := core.NewRuntime(machine.ScaledConfig(32), serve.DefaultStrategy, int64(seed))
	w, err := recovery.NewCGWorkload(rt, 24, 24, seed)
	if err != nil {
		return err
	}
	var snap checkpoint.Snapshot
	co := &recovery.Coordinator{RT: rt, W: w, OnCheckpoint: func(s checkpoint.Snapshot) { snap = s }}
	if rep := co.Run(); rep.Outcome == recovery.Aborted {
		return fmt.Errorf("checkpoint probe: cg aborted: %v", rep.Err)
	}
	var enc []byte
	out["checkpoint.encode_us"] = float64(minOf(20, func() { enc = checkpoint.Encode(snap) })) / 1e3
	var derr error
	out["checkpoint.decode_us"] = float64(minOf(20, func() { _, derr = checkpoint.Decode(enc) })) / 1e3
	out["checkpoint.bytes"] = float64(len(enc))
	return derr
}

// globalProbes runs every global probe against st. short shrinks the two
// big inputs for the tier-1 test; the metric names keep their nominal size.
func globalProbes(st *stack, seed uint64, short bool) (map[string]float64, error) {
	out := make(map[string]float64)
	big, shardN := 1024, 512
	if short {
		big, shardN = 256, 256
	}
	kernelProbes(out, seed, big)
	if err := batchProbe(out, seed); err != nil {
		return out, err
	}
	if err := jobProbes(out, st, seed, shardN); err != nil {
		return out, err
	}
	if err := voteProbe(out, st, seed); err != nil {
		return out, err
	}
	return out, checkpointProbe(out, seed)
}
