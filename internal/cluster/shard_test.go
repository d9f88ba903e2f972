package cluster

import (
	"errors"
	"testing"

	"coopabft/internal/serve"
)

// TestPlanShardsInvariants pins the placement scheme's guarantees: grid
// dims within [2, min(8, W-1)], every task placed by the (i+j)/(R+j)/(i+C)
// formulas, and — the recovery guarantee — within every grid column, the
// data blocks and the column-checksum block all live on distinct workers.
func TestPlanShardsInvariants(t *testing.T) {
	for _, tc := range []struct{ n, w, block int }{
		{256, 3, 128}, {256, 4, 64}, {512, 5, 64}, {2048, 9, 128}, {300, 16, 32},
	} {
		ids := make([]string, tc.w)
		for i := range ids {
			ids[i] = string(rune('a' + i))
		}
		ws := mkNodes(ids...)
		plan, err := planShards(tc.n, ws, tc.block, 7)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		g := plan.grid
		r, c := g.Rows(), g.Cols()
		if r < 2 || c < 2 || r > tc.w-1 || c > tc.w-1 || r > maxGridDim || c > maxGridDim {
			t.Fatalf("%+v: grid %dx%d violates bounds", tc, r, c)
		}
		if len(plan.tasks) != r*c+r+c {
			t.Fatalf("%+v: %d tasks, want %d", tc, len(plan.tasks), r*c+r+c)
		}
		w := len(plan.workers)
		byRole := map[string]int{}
		for _, task := range plan.tasks {
			byRole[task.role]++
			var want *node
			switch task.role {
			case serve.BlockData:
				want = plan.workers[(task.bi+task.bj)%w]
			case serve.BlockColCheck:
				want = plan.workers[(r+task.bj)%w]
			case serve.BlockRowCheck:
				want = plan.workers[(task.bi+c)%w]
			}
			if task.node != want {
				t.Fatalf("%+v: task %s(%d,%d) on %s, want %s",
					tc, task.role, task.bi, task.bj, task.node.id, want.id)
			}
		}
		if byRole[serve.BlockData] != r*c || byRole[serve.BlockColCheck] != c || byRole[serve.BlockRowCheck] != r {
			t.Fatalf("%+v: role counts %v", tc, byRole)
		}
		// Single-loss recoverability: per column, data + col-check owners
		// are pairwise distinct.
		for j := 0; j < c; j++ {
			seen := map[string]bool{plan.workers[(r+j)%w].id: true}
			for i := 0; i < r; i++ {
				id := plan.workers[(i+j)%w].id
				if seen[id] {
					t.Fatalf("%+v: column %d places two of its blocks on %s", tc, j, id)
				}
				seen[id] = true
			}
		}
	}
}

// TestPlanShardsSeedRotation: different job seeds rotate the worker list,
// spreading successive jobs across the pool; the same seed replans
// identically.
func TestPlanShardsSeedRotation(t *testing.T) {
	ws := mkNodes("a", "b", "c", "d", "e")
	p1, err := planShards(256, ws, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	p1again, _ := planShards(256, ws, 128, 1)
	for i := range p1.workers {
		if p1.workers[i].id != p1again.workers[i].id {
			t.Fatal("same seed produced different rotations")
		}
	}
	rotated := false
	for seed := uint64(2); seed < 12; seed++ {
		p2, _ := planShards(256, ws, 128, seed)
		if p2.workers[0].id != p1.workers[0].id {
			rotated = true
			break
		}
	}
	if !rotated {
		t.Error("10 seeds never rotated the worker list")
	}
}

// TestPlanShardsTooFewWorkers: fewer than 3 workers cannot hold distinct
// checksum blocks.
func TestPlanShardsTooFewWorkers(t *testing.T) {
	if _, err := planShards(256, mkNodes("a", "b"), 128, 1); !errors.Is(err, serve.ErrUnavailable) {
		t.Fatalf("err = %v, want serve.ErrUnavailable", err)
	}
}
