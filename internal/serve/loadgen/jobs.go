package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/campaign"
	"coopabft/internal/mat"
	"coopabft/internal/serve"
)

// Jobs-API client: drives the gateway's versioned async routes
// (POST /v1/jobs, GET /v1/jobs/{id}, DELETE /v1/jobs/{id}) and provides
// the submit-poll-verify loop behind abftload -jobs. Lives in
// loadgen, not cluster, so the generator never imports the scheduler —
// it speaks only the wire contract documented on serve.JobStatus.

// ErrJobFailed reports a job that reached a terminal state other than
// done, or a done job whose result failed local verification.
var ErrJobFailed = fmt.Errorf("loadgen: job failed")

// shedError marks a 429 from the jobs API, carrying the server's (capped)
// Retry-After hint so the poll loop can back off as told instead of
// failing the job.
type shedError struct {
	err   error
	after time.Duration
}

func (e *shedError) Error() string { return e.err.Error() }
func (e *shedError) Unwrap() error { return e.err }

// SubmitJob posts a request to /v1/jobs and returns the accepted job's
// initial status.
func (h *HTTPClient) SubmitJob(ctx context.Context, req serve.Request) (serve.JobStatus, error) {
	// Same rule as Do: resolve the kernel before anything touches the
	// wire, even though the jobs route carries it in the body not the
	// path — a bad kernel must fail typed and local.
	if _, err := serve.ParseKernel(req.Kernel); err != nil {
		return serve.JobStatus{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return serve.JobStatus{}, err
	}
	return h.jobCall(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted)
}

// JobStatus polls one job.
func (h *HTTPClient) JobStatus(ctx context.Context, id string) (serve.JobStatus, error) {
	return h.jobCall(ctx, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK)
}

// jobCall is one jobs-API exchange through call; a 429 comes back as a
// shedError carrying its delay.
func (h *HTTPClient) jobCall(ctx context.Context, method, path string, body []byte, want int) (serve.JobStatus, error) {
	var st serve.JobStatus
	after, err := h.call(ctx, method, path, body, want, &st)
	if after >= 0 {
		return st, &shedError{err: err, after: after}
	}
	return st, err
}

// JobsConfig drives RunJobs.
type JobsConfig struct {
	// Jobs is how many jobs to run, sequentially (default 1).
	Jobs int
	// Kernel selects what each job runs: "gemm" (default; shards across
	// the pool past the gateway's threshold) or "cg" (rides the gateway's
	// long path: checkpoint streaming and step-granular migration).
	Kernel string
	// N is the GEMM dimension (default 256) and Seed the base seed; job
	// number j submits Seed+j so successive jobs are distinct but
	// reproducible.
	N    int
	Seed uint64
	// NX, NY size the CG grid for Kernel "cg" (default 48×48).
	NX, NY int
	// Timeout bounds each job end to end, submit through terminal state
	// (default 2 minutes).
	Timeout time.Duration
	// Poll is the initial status poll interval (default 50ms). Polls that
	// observe no progress back off exponentially with deterministic jitter
	// up to PollMax; any progress — state, blocks, steps, checkpoints,
	// migrations — resets the interval, and a shed poll (429) honors the
	// gateway's Retry-After instead of failing the job.
	Poll time.Duration
	// PollMax caps the backed-off poll interval (default 1s).
	PollMax time.Duration
	// Verify recomputes the reference product locally and compares bit
	// digests — the end-to-end correctness gate. Costs an n³ GEMM per
	// distinct (n, seed) on the client. GEMM jobs only.
	Verify bool
}

func (c JobsConfig) withDefaults() JobsConfig {
	if c.Jobs <= 0 {
		c.Jobs = 1
	}
	if c.Kernel == "" {
		c.Kernel = "gemm"
	}
	if c.N <= 0 {
		c.N = 256
	}
	if c.NX <= 0 {
		c.NX = 48
	}
	if c.NY <= 0 {
		c.NY = 48
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	if c.Poll <= 0 {
		c.Poll = 50 * time.Millisecond
	}
	if c.PollMax <= 0 {
		c.PollMax = time.Second
	}
	if c.PollMax < c.Poll {
		c.PollMax = c.Poll
	}
	return c
}

// JobOutcome is one job's terminal record as the client saw it.
type JobOutcome struct {
	Status serve.JobStatus `json:"status"`
	// WallMS is submit-to-terminal latency measured at the client — the
	// number EXPERIMENTS quotes for kill-mid-job recovery.
	WallMS float64 `json:"wall_ms"`
	// DigestMismatch is set when Verify was on, the job finished done and
	// sharded, and its digest differed from the locally computed one.
	DigestMismatch bool `json:"digest_mismatch,omitempty"`
}

// JobsReport aggregates a RunJobs sweep.
type JobsReport struct {
	Jobs            []JobOutcome `json:"jobs"`
	Done            int          `json:"done"`
	Failed          int          `json:"failed"`
	Cancelled       int          `json:"cancelled"`
	Sharded         int          `json:"sharded"`
	Reconstructions int          `json:"reconstructions"`
	Recomputes      int          `json:"recomputes"`
	DigestMismatch  int          `json:"digest_mismatch"`
	// Long-path tallies: jobs that rode the checkpoint-streaming path, how
	// many times the gateway moved one to a new worker mid-solve, and how
	// many finished from a resumed step rather than a cold start.
	LongJobs   int `json:"long_jobs"`
	Migrations int `json:"migrations"`
	Resumed    int `json:"resumed"`
}

// Gate returns nil iff every job finished done and, when verification was
// on, every sharded digest matched the reference — the pass/fail line
// abftload -jobs exits on.
func (r JobsReport) Gate() error {
	if r.Failed > 0 || r.Cancelled > 0 || r.Done != len(r.Jobs) {
		return fmt.Errorf("%w: %d/%d done (%d failed, %d cancelled)",
			ErrJobFailed, r.Done, len(r.Jobs), r.Failed, r.Cancelled)
	}
	if r.DigestMismatch > 0 {
		return fmt.Errorf("%w: %d digest mismatches", ErrJobFailed, r.DigestMismatch)
	}
	return nil
}

// RunJobs submits cfg.Jobs jobs one at a time, polls each to a
// terminal state, and tallies the sweep. Per-job errors (submit rejected,
// poll timeout) mark the job failed in the report rather than aborting the
// sweep; only ctx cancellation stops it early.
func RunJobs(ctx context.Context, h *HTTPClient, cfg JobsConfig) (JobsReport, error) {
	cfg = cfg.withDefaults()
	var rep JobsReport
	for j := 0; j < cfg.Jobs; j++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		out, err := runOneJob(ctx, h, cfg, cfg.Seed+uint64(j))
		rep.Jobs = append(rep.Jobs, out)
		st := out.Status
		switch st.State {
		case serve.JobDone:
			rep.Done++
		case serve.JobCancelled:
			rep.Cancelled++
		default:
			rep.Failed++
		}
		if st.Sharded {
			rep.Sharded++
		}
		if st.Long {
			rep.LongJobs++
		}
		rep.Migrations += st.Migrations
		if st.ResumeStep > 0 {
			rep.Resumed++
		}
		rep.Reconstructions += st.Reconstructions
		rep.Recomputes += st.Recomputes
		if out.DigestMismatch {
			rep.DigestMismatch++
		}
		if err != nil && ctx.Err() != nil {
			return rep, err
		}
	}
	return rep, nil
}

// runOneJob is the submit-poll-verify loop for a single job.
func runOneJob(ctx context.Context, h *HTTPClient, cfg JobsConfig, seed uint64) (JobOutcome, error) {
	jctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	t0 := time.Now()
	// Admission reads the size its kernel's row names and ignores the other.
	req := serve.Request{Kernel: cfg.Kernel, N: cfg.N, NX: cfg.NX, NY: cfg.NY, Seed: seed}
	st, err := h.SubmitJob(jctx, req)
	if err != nil {
		return JobOutcome{Status: serve.JobStatus{State: serve.JobFailed, Error: err.Error()}}, err
	}
	delay := cfg.Poll
	for !terminalJobState(st.State) {
		if err := sleepCtx(jctx, delay); err != nil {
			st.State, st.Error = serve.JobFailed, "poll timeout: "+err.Error()
			break
		}
		next, err := h.JobStatus(jctx, st.ID)
		if err != nil {
			var shed *shedError
			if errors.As(err, &shed) {
				// Shed polls aren't failures: the gateway is busy, not broken.
				// Wait at least as long as it asked, then keep polling.
				if shed.after > delay {
					delay = shed.after
				} else {
					delay = nextPollDelay(delay, cfg, seed)
				}
				continue
			}
			st.State, st.Error = serve.JobFailed, err.Error()
			break
		}
		if jobProgressed(st, next) {
			delay = cfg.Poll
		} else {
			delay = nextPollDelay(delay, cfg, seed)
		}
		st = next
	}
	out := JobOutcome{Status: st, WallMS: float64(time.Since(t0)) / float64(time.Millisecond)}
	if cfg.Verify && st.State == serve.JobDone && st.Sharded {
		// Equality goes through the one canonical helper: an absent digest
		// must never match anything, including another absent digest.
		if ref := referenceDigest(cfg.N, seed); !abft.SameAnswer(st.Digest, ref) {
			out.DigestMismatch = true
			return out, fmt.Errorf("%w: job %s digest %s, reference %s", ErrJobFailed, st.ID, st.Digest, ref)
		}
	}
	return out, nil
}

// jobProgressed reports whether a newly polled status shows visible
// forward motion — the signal that keeps the poll interval tight. A job
// parked in the same state with identical counters is idling from the
// client's perspective, so its polls back off.
func jobProgressed(prev, next serve.JobStatus) bool {
	return next.State != prev.State ||
		next.BlocksDone != prev.BlocksDone ||
		next.Reconstructions != prev.Reconstructions ||
		next.Recomputes != prev.Recomputes ||
		next.Step != prev.Step ||
		next.Checkpoints != prev.Checkpoints ||
		next.Migrations != prev.Migrations ||
		next.Node != prev.Node
}

// nextPollDelay doubles the interval with ±25% deterministic jitter
// (keyed on the job seed and the current delay, so repeated sweeps
// replay the exact cadence) and clamps to [Poll, PollMax].
func nextPollDelay(cur time.Duration, cfg JobsConfig, seed uint64) time.Duration {
	next := 2 * cur
	jitter := campaign.Splitmix64(seed ^ uint64(cur))
	// Map the hash onto [-25%, +25%) of the doubled interval.
	frac := float64(jitter>>11)/float64(1<<53)*0.5 - 0.25
	next += time.Duration(float64(next) * frac)
	if next > cfg.PollMax {
		next = cfg.PollMax
	}
	if next < cfg.Poll {
		next = cfg.Poll
	}
	return next
}

func terminalJobState(s string) bool {
	return s == serve.JobDone || s == serve.JobFailed || s == serve.JobCancelled
}

// referenceDigest recomputes the single-node packed product's bit digest —
// the value a sharded job must reproduce exactly under the determinism
// contract.
func referenceDigest(n int, seed uint64) string {
	out := mat.New(n, n)
	mat.MulAddInto(out, mat.Random(n, n, seed), mat.Random(n, n, seed+1))
	return abft.BitDigest(out)
}
