package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/mat"
)

func blockService(t *testing.T) *Service {
	t.Helper()
	s := New(Config{MaxConcurrency: 2, MaxJobN: 256, Parallelism: 1})
	t.Cleanup(s.Close)
	return s
}

// TestDoBlockDataMatchesDirect: a data block equals the same region of the
// full product, bit for bit, through the pack/unpack wire form.
func TestDoBlockDataMatchesDirect(t *testing.T) {
	s := blockService(t)
	n := 48
	g, err := abft.NewBlockGrid(n, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mat.Random(n, n, 5), mat.Random(n, n, 6)
	full := mat.New(n, n)
	mat.MulAddInto(full, a, b)

	res, err := s.DoBlock(context.Background(), BlockTask{
		JobID: "j1", Kernel: "gemm", N: n, Seed: 5, Role: BlockData,
		RowSplits: g.RowSplits, ColSplits: g.ColSplits, BI: 1, BJ: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := abft.UnpackBlock(res.Rows, res.Cols, res.Block)
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := g.RowSpan(1)
	c0, _ := g.ColSpan(1)
	for i := 0; i < blk.Rows; i++ {
		for j := 0; j < blk.Cols; j++ {
			if math.Float64bits(blk.At(i, j)) != math.Float64bits(full.At(r0+i, c0+j)) {
				t.Fatalf("el(%d,%d) differs from direct product", i, j)
			}
		}
	}
}

// TestDoBlockChecksumFoldsColumn: the col-check task's parity equals the
// XOR-fold of the column's data blocks, and its Σ-block verifies them.
func TestDoBlockChecksumFoldsColumn(t *testing.T) {
	s := blockService(t)
	n := 37
	g, err := abft.NewBlockGrid(n, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := BlockTask{JobID: "j2", Kernel: "gemm", N: n, Seed: 9,
		RowSplits: g.RowSplits, ColSplits: g.ColSplits}

	var col []*mat.Matrix
	for bi := 0; bi < g.Rows(); bi++ {
		task := base
		task.Role, task.BI, task.BJ = BlockData, bi, 0
		res, err := s.DoBlock(context.Background(), task)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := abft.UnpackBlock(res.Rows, res.Cols, res.Block)
		if err != nil {
			t.Fatal(err)
		}
		col = append(col, blk)
	}
	task := base
	task.Role, task.BJ = BlockColCheck, 0
	res, err := s.DoBlock(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	parity, err := abft.UnpackBlock(res.Rows, res.Cols, res.Block)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := abft.UnpackBlock(res.Rows, res.Cols, res.Sum)
	if err != nil {
		t.Fatal(err)
	}

	c0, c1 := g.ColSpan(0)
	wantParity, wantSum := abft.EncodeChecksumBlocks(col, g.MaxRowSpan(), c1-c0)
	for i := 0; i < wantParity.Rows; i++ {
		for j := 0; j < wantParity.Cols; j++ {
			if math.Float64bits(parity.At(i, j)) != math.Float64bits(wantParity.At(i, j)) {
				t.Fatalf("parity el(%d,%d) differs", i, j)
			}
			if sum.At(i, j) != wantSum.At(i, j) {
				t.Fatalf("sum el(%d,%d) differs", i, j)
			}
		}
	}
	if err := abft.VerifyBlockSum(sum, col, abft.BlockTol(n)); err != nil {
		t.Fatalf("Σ-check over data blocks: %v", err)
	}
	// And a reconstruction from this parity is bit-exact.
	lost := col[1]
	got, err := abft.ReconstructBlock(parity, []*mat.Matrix{col[0], col[2]}, lost.Rows, lost.Cols)
	if err != nil {
		t.Fatal(err)
	}
	if abft.BitDigest(got) != abft.BitDigest(lost) {
		t.Fatal("reconstructed block differs from lost block")
	}
}

// TestDoBlockRejects: the shared 400 taxonomy covers block tasks.
func TestDoBlockRejects(t *testing.T) {
	s := blockService(t)
	g, _ := abft.NewBlockGrid(64, 2, 2)
	base := BlockTask{Kernel: "gemm", N: 64, Role: BlockData,
		RowSplits: g.RowSplits, ColSplits: g.ColSplits}
	cases := map[string]func(*BlockTask){
		"unknown kernel":  func(t *BlockTask) { t.Kernel = "lu" },
		"non-gemm":        func(t *BlockTask) { t.Kernel = "cholesky" },
		"oversized":       func(t *BlockTask) { t.N = 100000 },
		"bad role":        func(t *BlockTask) { t.Role = "parity" },
		"bi out of range": func(t *BlockTask) { t.BI = 2 },
		"bad splits":      func(t *BlockTask) { t.RowSplits = []int{0, 70} },
		"empty splits":    func(t *BlockTask) { t.RowSplits = nil },
	}
	for name, mutate := range cases {
		task := base
		mutate(&task)
		if _, err := s.DoBlock(context.Background(), task); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
	if got := s.Metrics().Block.Rejected.Value(); got != int64(len(cases)) {
		t.Errorf("BlockRejected = %d, want %d", got, len(cases))
	}
}

// splitsOf reads b as little-endian int16 split points; a trailing odd byte
// is dropped. Sixteen bits with a sign reach past every admitted n both ways.
func splitsOf(b []byte) []int {
	sp := make([]int, len(b)/2)
	for i := range sp {
		sp[i] = int(int16(binary.LittleEndian.Uint16(b[2*i:])))
	}
	return sp
}

// FuzzParseBlockTask: for any kernel name, size, seed, role, grid and grid
// position, parseBlockTask never panics and refuses only with ErrBadRequest.
// What it accepts is a gemm task of n ≤ MaxJobN (0 meaning the default 64)
// whose row and column splits each run strictly upwards from 0 to n, and
// whose role names a block inside that grid.
func FuzzParseBlockTask(f *testing.F) {
	l := Config{}.withDefaults().blockLimits()
	f.Add("gemm", 64, uint64(3), BlockData, []byte("\x00\x00\x20\x00\x40\x00"), []byte("\x00\x00\x40\x00"), 1, 0)
	f.Fuzz(func(t *testing.T, kernel string, n int, seed uint64, role string, rows, cols []byte, bi, bj int) {
		task := BlockTask{Kernel: kernel, N: n, Seed: seed, Role: role,
			RowSplits: splitsOf(rows), ColSplits: splitsOf(cols), BI: bi, BJ: bj}
		p, g, err := parseBlockTask(l, task)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("refusal is not ErrBadRequest: %v", err)
			}
			return
		}
		size := n
		if size == 0 {
			size = 64
		}
		if p.Kernel != KernelGEMM || p.N != size || size > l.MaxN || g.N != size || p.Seed != seed {
			t.Fatalf("accepted kernel %s n=%d seed %d over a grid of %d, from kernel %q n=%d seed %d",
				p.Kernel, p.N, p.Seed, g.N, kernel, n, seed)
		}
		for _, sp := range [][]int{g.RowSplits, g.ColSplits} {
			ok := len(sp) >= 2 && sp[0] == 0 && sp[len(sp)-1] == size
			for i := 1; ok && i < len(sp); i++ {
				ok = sp[i] > sp[i-1]
			}
			if !ok {
				t.Fatalf("accepted splits %v over n=%d", sp, size)
			}
		}
		inRows, inCols := bi >= 0 && bi < len(g.RowSplits)-1, bj >= 0 && bj < len(g.ColSplits)-1
		if !map[string]bool{BlockData: inRows && inCols, BlockColCheck: inCols, BlockRowCheck: inRows}[role] {
			t.Fatalf("accepted role %q at (%d,%d) on a %dx%d grid", role, bi, bj, g.Rows(), g.Cols())
		}
	})
}

// TestBlockHTTPRoute exercises POST /v1/block end to end.
func TestBlockHTTPRoute(t *testing.T) {
	s := blockService(t)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	g, _ := abft.NewBlockGrid(32, 2, 2)
	body, _ := json.Marshal(BlockTask{JobID: "h1", Kernel: "gemm", N: 32, Seed: 3,
		Role: BlockData, RowSplits: g.RowSplits, ColSplits: g.ColSplits, BI: 0, BJ: 1})
	resp, err := http.Post(srv.URL+"/v1/block", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var res BlockResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.JobID != "h1" || res.Rows != 16 || res.Cols != 16 || len(res.Block) != 8*16*16 {
		t.Fatalf("unexpected result: %+v rows=%d cols=%d len=%d", res.JobID, res.Rows, res.Cols, len(res.Block))
	}

	bad, _ := json.Marshal(BlockTask{Kernel: "nope", N: 32, Role: BlockData,
		RowSplits: g.RowSplits, ColSplits: g.ColSplits})
	resp2, err := http.Post(srv.URL+"/v1/block", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kernel status = %d, want 400", resp2.StatusCode)
	}
}

// TestKernelWireRejectsInvalid pins the satellite fix: the String fallback
// ("Kernel(%d)") must never reach route construction.
func TestKernelWireRejectsInvalid(t *testing.T) {
	for _, k := range Kernels {
		w, err := k.Wire()
		if err != nil || w != k.String() {
			t.Fatalf("Wire(%v) = %q, %v", k, w, err)
		}
	}
	for _, k := range []Kernel{Kernel(-1), Kernel(3), Kernel(99)} {
		if k.Valid() {
			t.Fatalf("Kernel(%d).Valid() = true", int(k))
		}
		if _, err := k.Wire(); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("Wire(%d): err = %v, want ErrBadRequest", int(k), err)
		}
	}
}

// TestSideRoutesNegativeQueueTimeoutDisablesBudget: Config.QueueTimeout < 0
// is documented as "disables". On all three side routes a task that finds
// every slot held must then wait for its own deadline instead of being shed
// at once (a timer armed with a negative duration is born expired), and an
// idle service must never shed.
func TestSideRoutesNegativeQueueTimeoutDisablesBudget(t *testing.T) {
	s := newTestService(t, Config{QueueTimeout: -time.Second, BlockConcurrency: 1, Parallelism: 1})
	n := 8
	g, err := abft.NewBlockGrid(n, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	block := BlockTask{Kernel: "gemm", N: n, Seed: 3, Role: BlockData, RowSplits: g.RowSplits, ColSplits: g.ColSplits}
	c := mat.New(n, n)
	mat.MulAddInto(c, mat.Random(n, n, 3), mat.Random(n, n, 4))
	verify := verifyTask(t, n, 3, 4, abft.PackBlock(c))
	long := LongTask{Kernel: "cg", NX: 4, NY: 4, Seed: 3}

	routes := []struct {
		rt *sideRoute
		do func() error
	}{
		{&s.block, func() error { _, err := s.DoBlock(context.Background(), block); return err }},
		{&s.verify, func() error {
			res, err := s.DoVerify(context.Background(), verify)
			if err == nil && !res.OK {
				err = errors.New("verifier refuted a correct product: " + res.Reason)
			}
			return err
		}},
		{&s.long, func() error { _, err := s.DoLong(context.Background(), long); return err }},
	}
	for _, r := range routes {
		r.rt.sem <- struct{}{} // hold the route's only slot
		done := make(chan error, 1)
		go func() { done <- r.do() }()
		select {
		case err := <-done:
			t.Fatalf("%s task did not wait for the held slot: err = %v", r.rt.slot, err)
		case <-time.After(50 * time.Millisecond):
		}
		<-r.rt.sem // free it: the waiting task must now run to completion
		if err := <-done; err != nil {
			t.Fatalf("%s task after the slot freed: %v", r.rt.slot, err)
		}
	}
	for i := 0; i < 1000; i++ {
		if err := routes[i%2].do(); err != nil {
			t.Fatalf("idle call %d: %v", i, err)
		}
	}
	snap := s.Metrics().Snapshot()
	for _, key := range []string{"block_shed", "verify_shed", "long_shed"} {
		if snap[key] != int64(0) {
			t.Errorf("%s = %v on a service that never ran out of slots, want 0", key, snap[key])
		}
	}
}
