package serve

import (
	"fmt"
	"time"

	"coopabft/internal/serve/qos"
)

// compatible reports whether two requests may share an execution batch:
// same kernel shape, same problem size, same ECC strategy, same verify
// mode, same precision, and same tenant — the serving analogue of GEMM
// batching, where a worker runs the coalesced group back-to-back on one
// concurrency slot with warm packing buffers. Mixing verify modes or dtypes
// in a batch would make batch latency depend on queue interleaving, so
// fused and notified — or f32 and f64 — requests never coalesce. Integrity
// modes must match too: a vote replica carries signature work (and
// verify-vote a payload copy) a plain request does not. Tenants never share
// a batch: a batch runs on one concurrency slot, so coalescing across
// tenants would let one tenant's work ride (and bill to) another's
// scheduling decision, defeating fair queueing.
func compatible(a, b Parsed) bool {
	return a.Kernel == KernelGEMM && b.Kernel == KernelGEMM &&
		a.N == b.N && a.Strategy == b.Strategy && a.Mode == b.Mode &&
		a.Integrity == b.Integrity && a.Dtype == b.Dtype && a.Tenant == b.Tenant
}

// work runs fair-queue heads on the concurrency slot won by the caller of Do
// whose job is own, and gives the slot back when it stops. It pops the head
// (which may be another caller's job), runs it, delivers it, and goes on
// until own has been taken, by this caller or by another slot holder, or
// the queue is empty, or own's context ends (its caller then abandons it),
// or the service closes. The state check comes before every pop, so a
// caller runs at most one head that it popped after own was taken: the one
// it popped while another holder was taking own. Own's context is asked only
// about another caller's head, never about own (which runJob checks before
// running it): asking a cancelCtx for Done makes its channel, and a caller
// that runs only its own job never needs one. With BatchWindow > 0 a GEMM
// head opens a batch that the slot holder forms (collect) and runs
// back-to-back on its slot.
func (s *Service) work(own *job) {
	defer func() { <-s.sem }()
	live := func(it qos.Item) bool {
		if it.Value.(*job) == own {
			return true
		}
		select {
		case <-own.ctx.Done():
			return false // past its deadline, a slot holder runs nobody else's request
		default:
			return true
		}
	}
	for own.state.Load() == stateQueued {
		select {
		case <-s.quit:
			return
		default:
		}
		head, ok := s.take(live)
		if !ok {
			return
		}
		if s.cfg.BatchWindow > 0 && s.cfg.MaxBatch > 1 && head.req.Kernel == KernelGEMM {
			s.runBatch(s.collect(head))
		} else {
			s.runBatch([]*job{head})
		}
	}
}

// take pops the first fair-queue head match accepts (nil accepts all) whose
// waiter still waits, and marks it running: from here its slot holder
// delivers it. Heads whose waiters gave up are dropped on the way.
func (s *Service) take(match func(qos.Item) bool) (*job, bool) {
	for {
		it, ok := s.sched.PopWhere(match)
		if !ok {
			return nil, false
		}
		if j := it.Value.(*job); j.state.CompareAndSwap(stateQueued, stateRunning) {
			s.m.QueueDepth.Add(-1)
			return j, true
		}
	}
}

// collect holds first's batch open for BatchWindow, coalescing compatible
// followers up to MaxBatch. Only fair-queue heads are considered (PopWhere),
// so batching can never reorder one tenant's requests; incompatible work
// simply stays queued for the next slot holder.
func (s *Service) collect(first *job) []*job {
	batch := []*job{first}
	timer := time.NewTimer(s.cfg.BatchWindow)
	defer timer.Stop()
	match := func(it qos.Item) bool { return compatible(first.req, it.Value.(*job).req) }
	for len(batch) < s.cfg.MaxBatch {
		if j, ok := s.take(match); ok {
			batch = append(batch, j)
			continue
		}
		select {
		case <-s.sched.Ready():
		case <-timer.C:
			return batch
		case <-s.quit:
			return batch
		}
	}
	return batch
}

// runBatch executes a batch on the caller's concurrency slot.
func (s *Service) runBatch(batch []*job) {
	s.m.Batches.Add(1)
	if len(batch) > 1 {
		s.m.BatchedRequests.Add(int64(len(batch)))
	}
	for _, j := range batch {
		s.runJob(j, len(batch))
	}
}

// runJob enforces the queue-wait budget on one taken job and executes the
// ladder.
func (s *Service) runJob(j *job, batchSize int) {
	wait := time.Since(j.enq)
	if qt := s.cfg.QueueTimeout; qt > 0 && wait > qt {
		s.m.QueueTimeouts.Add(1)
		j.deliver(Response{}, fmt.Errorf("%w: waited %s (budget %s)",
			ErrQueueTimeout, wait.Round(time.Millisecond), qt))
		return
	}
	if err := j.ctx.Err(); err != nil {
		s.m.QueueTimeouts.Add(1)
		j.deliver(Response{}, fmt.Errorf("%w: %w", ErrQueueTimeout, err))
		return
	}
	j.deliver(s.execute(j, batchSize, wait), nil)
}
