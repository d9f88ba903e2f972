package cluster

import (
	"testing"

	"coopabft/internal/core"
	"coopabft/internal/serve"
)

func mkNodes(ids ...string) []*node {
	out := make([]*node, 0, len(ids))
	for _, id := range ids {
		out = append(out, &node{id: id, hash: fnv64a(id)})
	}
	return out
}

// TestSizeClass pins the power-of-two bucketing.
func TestSizeClass(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{16, 4}, {17, 5}, {48, 6}, {64, 6}, {65, 7}, {192, 8}, {0, 0},
	} {
		if got := sizeClass(tc.n); got != tc.class {
			t.Errorf("sizeClass(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
}

// TestRankDeterministic: the same key always yields the same order.
func TestRankDeterministic(t *testing.T) {
	nodes := mkNodes("a", "b", "c", "d")
	key := placementKey(serve.KernelGEMM, 6)
	first := rank(nodes, key)
	for i := 0; i < 10; i++ {
		again := rank(nodes, key)
		for j := range first {
			if first[j].id != again[j].id {
				t.Fatalf("ranking unstable at %d: %s vs %s", j, first[j].id, again[j].id)
			}
		}
	}
}

// TestRankSpreads: across kernels and size classes, different nodes win —
// the hash actually distributes placement.
func TestRankSpreads(t *testing.T) {
	nodes := mkNodes("a", "b", "c", "d")
	winners := map[string]int{}
	for _, k := range serve.Kernels {
		for class := 0; class < 10; class++ {
			winners[rank(nodes, placementKey(k, class))[0].id]++
		}
	}
	if len(winners) < 3 {
		t.Errorf("30 keys landed on only %d of 4 nodes: %v", len(winners), winners)
	}
}

// TestRankRendezvousProperty: removing a node only remaps the keys it
// owned; every other key keeps its winner. This is the property that makes
// failover cheap — a dead node does not reshuffle the whole cluster.
func TestRankRendezvousProperty(t *testing.T) {
	nodes := mkNodes("a", "b", "c", "d")
	survivors := nodes[:3] // drop "d"
	for _, k := range serve.Kernels {
		for class := 0; class < 12; class++ {
			key := placementKey(k, class)
			before := rank(nodes, key)[0]
			after := rank(survivors, key)[0]
			if before.id != "d" && before.id != after.id {
				t.Errorf("key (%v,%d): winner moved %s → %s though %s is alive",
					k, class, before.id, after.id, before.id)
			}
			// And the displaced keys land on the dead node's runner-up.
			if before.id == "d" {
				if want := rank(nodes, key)[1]; after.id != want.id {
					t.Errorf("key (%v,%d): expected runner-up %s, got %s", k, class, want.id, after.id)
				}
			}
		}
	}
}

// TestPlacementSizeDefaults: gateway placement sizes come from the shared
// serve.ParseRequest entrypoint, so its defaults and node admission agree
// on the size class by construction.
func TestPlacementSizeDefaults(t *testing.T) {
	limits := serve.Limits{MaxN: 2048, MaxFaults: 8}
	for _, tc := range []struct {
		req  serve.Request
		want int
	}{
		{serve.Request{Kernel: "gemm"}, 64},
		{serve.Request{Kernel: "cholesky", N: 96}, 96},
		{serve.Request{Kernel: "cg"}, 256},
		{serve.Request{Kernel: "cg", NX: 8, NY: 4}, 32},
	} {
		p, err := serve.ParseRequest(limits, tc.req)
		if err != nil {
			t.Fatalf("%+v: %v", tc.req, err)
		}
		if got := p.Size(); got != tc.want {
			t.Errorf("%+v: size = %d, want %d", tc.req, got, tc.want)
		}
	}
}

// TestWarmPlacementAllocationBudget: once a strategy, kernel and size class
// has been placed, placing it again reads the order kept for it — no copy,
// no sort, no allocation — and that order is rank's over the nodes capable
// of the strategy, for a strategy every node serves and for one only some
// do.
func TestWarmPlacementAllocationBudget(t *testing.T) {
	g := testGateway(t,
		NodeConfig{ID: "a", BaseURL: "http://127.0.0.1:1"},
		NodeConfig{ID: "b", BaseURL: "http://127.0.0.1:2", Strategies: []core.Strategy{core.NoECC, core.WholeChipkill}},
		NodeConfig{ID: "c", BaseURL: "http://127.0.0.1:3"},
		NodeConfig{ID: "d", BaseURL: "http://127.0.0.1:4", Strategies: []core.Strategy{core.WholeChipkill}},
	)
	limits := serve.Limits{MaxN: 2048, MaxFaults: 8}
	for _, req := range []serve.Request{
		{Kernel: "gemm", N: 48},
		{Kernel: "cholesky", N: 96, Strategy: "W_CK"},
		{Kernel: "gemm", N: 48, Strategy: "No_ECC"},
		{Kernel: "cg", NX: 8, NY: 4, Strategy: "P_SD+No_ECC"},
	} {
		p, err := serve.ParseRequest(limits, req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		var capable []*node
		for _, nd := range g.nodes {
			if nd.supports(p.Strategy) {
				capable = append(capable, nd)
			}
		}
		want := rank(capable, placementKey(p.Kernel, sizeClass(p.Size())))
		for round := 0; round < 2; round++ {
			got := g.placement(p)
			if len(got) != len(want) {
				t.Fatalf("%+v: %d nodes placed, want %d", req, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%+v: node %d is %s, rank gives %s", req, i, got[i].id, want[i].id)
				}
			}
		}
		if n := testing.AllocsPerRun(100, func() { g.placement(p) }); n != 0 {
			t.Errorf("%+v: a warm placement allocates %.0f times", req, n)
		}
	}
}
