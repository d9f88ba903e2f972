package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"coopabft/internal/checkpoint"
)

// TestLongTaskRecycledNode: a long task takes its node from the service's
// pool, so the same seeded task must end with the same LongResult (RunMS
// aside) on a node that has never served anything and on one that has just
// served faulted work: a clean solve, two faulted ones, and one resumed from
// a streamed snapshot.
func TestLongTaskRecycledNode(t *testing.T) {
	ctx := context.Background()
	// The last snapshot a solve streams is its last checkpoint, whichever
	// earlier ones the latest-wins slot superseded: step 24 of 41.
	var mu sync.Mutex
	var snap []byte
	gw := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		snap = b
		mu.Unlock()
	}))
	defer gw.Close()
	if _, err := newTestService(t, Config{}).DoLong(ctx, LongTask{Kernel: "cg", NX: 12, NY: 12, Seed: 5,
		CheckpointEvery: 24, CheckpointURL: gw.URL}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()

	for name, task := range map[string]LongTask{
		"clean":   {Kernel: "cg", NX: 12, NY: 12, Seed: 5},
		"faulted": {Kernel: "cg", NX: 12, NY: 12, Seed: 6, Strategy: "P_CK+P_SD", Faults: 2, FaultKind: "double-bit"},
		// Three rollbacks, then the restart budget runs out.
		"faulted to abort": {Kernel: "cg", NX: 12, NY: 12, Seed: 6, Strategy: "P_CK+No_ECC", Faults: 2, FaultKind: "chip-failure"},
		"resumed":          {Kernel: "cg", NX: 12, NY: 12, Seed: 5, Snapshot: snap},
	} {
		t.Run(name, func(t *testing.T) {
			run := func(s *Service) string {
				t.Helper()
				res, err := s.DoLong(ctx, task)
				if err != nil {
					t.Fatal(err)
				}
				res.RunMS = 0
				return fmt.Sprintf("%+v", res)
			}
			fresh := run(newTestService(t, Config{}))

			s := newTestService(t, Config{})
			if _, err := s.DoLong(ctx, LongTask{Kernel: "cg", NX: 16, NY: 16, Seed: 9,
				Strategy: "No_ECC", Faults: 3, FaultKind: "scattered"}); err != nil {
				t.Fatal(err)
			}
			nd, ok := s.nodes.Get()
			if !ok {
				t.Fatal("the long task left no node in the free list")
			}
			s.nodes.Put(nd, 1)
			if recycled := run(s); recycled != fresh {
				t.Errorf("recycled node:\n got  %s\n want %s", recycled, fresh)
			}
			t.Log(fresh)
		})
	}
}

// FuzzParseLongTask: for any task fields and snapshot bytes, parseLongTask
// never panics and refuses only with ErrBadRequest; what it accepts is a cg
// task with checkpoint_every >= 0 whose snapshot, when it carries one, is
// one checkpoint.Decode accepts and the one the task resumes from.
func FuzzParseLongTask(f *testing.F) {
	l := Config{}.withDefaults().longLimits()
	f.Add("cg", 12, 12, uint64(5), "P_CK+P_SD", 2, "double-bit", 8,
		checkpoint.Encode(checkpoint.Snapshot{Step: 24, Restarts: 1, Regions: []checkpoint.SnapRegion{{Name: "x", Data: []float64{1, -0.5, 3}}}}))
	f.Fuzz(func(t *testing.T, kernel string, nx, ny int, seed uint64, strategy string, faults int, faultKind string, every int, snapshot []byte) {
		task := LongTask{Kernel: kernel, NX: nx, NY: ny, Seed: seed, Strategy: strategy,
			Faults: faults, FaultKind: faultKind, CheckpointEvery: every, Snapshot: snapshot}
		p, resume, err := parseLongTask(l, task)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("refusal is not ErrBadRequest: %v", err)
			}
			return
		}
		if p.Kernel != KernelCG || every < 0 {
			t.Fatalf("accepted kernel %s with checkpoint_every %d", p.Kernel, every)
		}
		if len(snapshot) == 0 {
			if resume != nil {
				t.Fatalf("a task without a snapshot resumes from %+v", resume)
			}
			return
		}
		snap, derr := checkpoint.Decode(snapshot)
		if derr != nil || resume == nil || fmt.Sprint(*resume) != fmt.Sprint(snap) {
			t.Fatalf("accepted snapshot: Decode err %v, resumes from %+v, want %+v", derr, resume, snap)
		}
	})
}
