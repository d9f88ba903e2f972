package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/cluster/vote"
	"coopabft/internal/mat"
	"coopabft/internal/serve"
)

// byzNode starts a serve node with the Byzantine lie fixture active: it
// answers integrity-tier requests with a well-formed, internally
// consistent, wrong answer on a seeded fraction of requests.
func byzNode(t *testing.T, fraction float64, lieSeed uint64) string {
	t.Helper()
	svc := serve.New(serve.Config{MaxConcurrency: 2, QueueDepth: 64, QueueTimeout: 30 * time.Second,
		LieFraction: fraction, LieSeed: lieSeed})
	ts := httptest.NewServer(serve.NewHandler(svc))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts.URL
}

// voteGateway is testGateway with the integrity-tier knobs pinned.
func voteGateway(t *testing.T, replicas, suspectTrip int, nodes ...NodeConfig) *Gateway {
	t.Helper()
	g, err := New(Config{
		Nodes:           nodes,
		Window:          8,
		Retries:         3,
		RetryBackoff:    time.Millisecond,
		ProbeInterval:   -1,
		BreakerFailures: 3,
		BreakerCooldown: 50 * time.Millisecond,
		Seed:            7,
		VoteReplicas:    replicas,
		SuspectTrip:     suspectTrip,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// TestVoteAdmission: unknown integrity modes are typed 400s, and a vote
// wider than the healthy capable pool is a typed 503 with Retry-After —
// the client asked for more independence than the cluster can sell.
func TestVoteAdmission(t *testing.T) {
	g := voteGateway(t, 3, 3,
		NodeConfig{ID: "n0", BaseURL: serveNode(t)},
		NodeConfig{ID: "n1", BaseURL: serveNode(t)},
	)
	ts := httptest.NewServer(NewHandler(g))
	defer ts.Close()

	post := func(body string) (*http.Response, struct{ Kind string }) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/gemm", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Kind string }
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		return resp, e
	}

	resp, e := post(`{"n": 32, "seed": 1, "integrity": "paxos"}`)
	if resp.StatusCode != http.StatusBadRequest || e.Kind != "bad_request" {
		t.Errorf("unknown integrity: status %d kind %q", resp.StatusCode, e.Kind)
	}
	resp, e = post(`{"n": 32, "seed": 1, "replicas": 3}`)
	if resp.StatusCode != http.StatusBadRequest || e.Kind != "bad_request" {
		t.Errorf("replicas without integrity: status %d kind %q", resp.StatusCode, e.Kind)
	}

	// Two healthy nodes cannot seat a three-replica election.
	resp, e = post(`{"n": 32, "seed": 1, "integrity": "vote", "replicas": 3}`)
	if resp.StatusCode != http.StatusServiceUnavailable || e.Kind != "no_quorum" {
		t.Errorf("R beyond pool: status %d kind %q", resp.StatusCode, e.Kind)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("no-quorum 503 without Retry-After")
	}
	if _, err := g.Do(context.Background(),
		serve.Request{Kernel: "gemm", N: 32, Seed: 1, Integrity: "vote", Replicas: 3}); !errors.Is(err, serve.ErrNoQuorum) {
		t.Errorf("Do: err = %v, want serve.ErrNoQuorum", err)
	}
	if g.m.QuorumFail.Value() != 2 {
		t.Errorf("quorum_fail = %d, want 2", g.m.QuorumFail.Value())
	}

	// R=2 fits the pool and delivers on unanimity.
	resp, _ = post(`{"n": 32, "seed": 1, "integrity": "vote", "replicas": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("R=2 vote: status %d", resp.StatusCode)
	}
}

// TestVoteOfOnePassthrough: R=1 is a passthrough election — the single
// ballot is its own quorum, and the classified answer matches what the
// same node returns with integrity=none, with the signature on top.
func TestVoteOfOnePassthrough(t *testing.T) {
	g := voteGateway(t, 3, 3, NodeConfig{ID: "n0", BaseURL: serveNode(t)})
	ctx := context.Background()

	plain, err := g.Do(ctx, serve.Request{Kernel: "gemm", N: 48, Seed: 5, Faults: 1})
	if err != nil {
		t.Fatal(err)
	}
	voted, err := g.Do(ctx, serve.Request{Kernel: "gemm", N: 48, Seed: 5, Faults: 1, Integrity: "vote", Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if voted.Outcome != plain.Outcome || voted.Corrections != plain.Corrections ||
		voted.Injected != plain.Injected || voted.Node != plain.Node {
		t.Errorf("vote-of-1 diverged from none:\n  none %+v\n  vote %+v", plain, voted)
	}
	if voted.VoteReplicas != 1 || voted.VoteAgree != 1 || voted.AnswerSig == "" {
		t.Errorf("vote-of-1 stamps = %+v", voted)
	}
	if voted.Answer != nil {
		t.Error("vote response shipped payload bytes to the client")
	}
	if g.m.VotesTotal.Value() != 1 || g.m.QuorumFail.Value() != 0 {
		t.Errorf("votes_total=%d quorum_fail=%d", g.m.VotesTotal.Value(), g.m.QuorumFail.Value())
	}
}

// TestByzantineSweep is the headline zero-wrong-answers contract: a
// three-node cluster with one always-lying node serves a 64-request seeded
// sweep under integrity=vote, and the liar never wins an election, every
// delivery reaches quorum, the liar's suspect tally grows, and its breaker
// trips on lost elections alone. A verify-vote sweep over a second such pool
// then banks cheap verification passes, delivers only what an honest node
// computes, and ends every election the liar led in a typed abort.
//
// The liar lies adaptively: its answers pass every probe a worker can
// predict. That is nothing to vote, which never probes: it compares exact
// signatures, the lie's signature differs from the honest answer's, and the
// two honest replicas agree bit for bit, so one liar holds one ballot of
// three and can never win a majority. Verify-vote holds only because the
// gateway draws its probe after the primary answered.
func TestByzantineSweep(t *testing.T) {
	mixedPool := func() *Gateway {
		return voteGateway(t, 3, 3,
			NodeConfig{ID: "n0", BaseURL: serveNode(t)},
			NodeConfig{ID: "n1", BaseURL: serveNode(t)},
			NodeConfig{ID: "liar", BaseURL: byzNode(t, 1, 99)},
		)
	}
	g := mixedPool()
	ctx := context.Background()
	sigs := map[uint64]string{}
	for i := 0; i < 64; i++ {
		seed := uint64(1000 + i)
		resp, err := g.Do(ctx, serve.Request{Kernel: "gemm", N: 32, Seed: seed, Integrity: "vote"})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Outcome == "aborted" {
			t.Fatalf("request %d aborted: %s", i, resp.Error)
		}
		if resp.Node == "liar" {
			t.Fatalf("request %d: the lying node delivered the winning answer", i)
		}
		if resp.VoteAgree < 2 {
			t.Fatalf("request %d: delivered with agreement %d < quorum 2", i, resp.VoteAgree)
		}
		sigs[seed] = resp.AnswerSig
		// Replay determinism: the same seed elects the same signature.
		if i%16 == 0 {
			again, err := g.Do(ctx, serve.Request{Kernel: "gemm", N: 32, Seed: seed, Integrity: "vote"})
			if err != nil {
				t.Fatal(err)
			}
			if again.AnswerSig != sigs[seed] {
				t.Fatalf("seed %d re-elected %s, was %s", seed, again.AnswerSig, sigs[seed])
			}
		}
	}
	if got := g.m.QuorumFail.Value(); got != 0 {
		t.Errorf("quorum_fail = %d, want 0 — two honest nodes always outvote one liar", got)
	}
	if got := g.m.VotesTotal.Value(); got != 64+4 {
		t.Errorf("votes_total = %d, want one per election (64 and 4 replays)", got)
	}
	// The liar is suspected whenever it was seated and lost; with its
	// breaker periodically open it sits out some elections, but over 64
	// requests the tally and at least one suspect trip must land.
	if got := g.m.Node("liar").Suspects.Value(); got < 3 || got != g.m.SuspectsTotal.Value() {
		t.Errorf("liar suspects = %d of %d in total, want >= 3 and all of them", got, g.m.SuspectsTotal.Value())
	}
	if g.m.Node("liar").SuspectTrips.Value() < 1 || g.m.SuspectTrips.Value() < 1 {
		t.Error("lost elections never tripped the liar's breaker")
	}
	if g.m.Node("n0").Suspects.Value() != 0 || g.m.Node("n1").Suspects.Value() != 0 {
		t.Error("honest nodes were suspected")
	}
	snap := g.m.Snapshot()
	per, ok := snap["suspects_per_node"].(map[string]any)
	if !ok || per["liar"] == int64(0) {
		t.Errorf("snapshot suspects_per_node = %v", snap["suspects_per_node"])
	}

	// Verify-vote seats as primary the first node of the request's placement
	// order, which depends on the size class: pick one size the liar leads
	// and one an honest node leads, so both kinds of election are held.
	gv := mixedPool()
	honest := voteGateway(t, 1, 3, NodeConfig{ID: "ref", BaseURL: serveNode(t)})
	var lyingN, honestN int
	for _, n := range []int{160, 96, 48, 32, 16} { // the smallest of each kind
		if rank(gv.nodes, placementKey(serve.KernelGEMM, sizeClass(n)))[0].id == "liar" {
			lyingN = n
		} else {
			honestN = n
		}
	}
	if lyingN == 0 || honestN == 0 {
		t.Fatalf("no size class seats a lying primary (n=%d) and an honest one (n=%d)", lyingN, honestN)
	}
	aborted := 0
	for i := 0; i < 16; i++ {
		req := serve.Request{Kernel: "gemm", N: lyingN, Seed: uint64(2000 + i), Integrity: "verify-vote"}
		if i%2 == 1 {
			req.N = honestN
		}
		resp, err := gv.Do(ctx, req)
		if err != nil {
			t.Fatalf("verify-vote %d: %v", i, err)
		}
		if resp.Node == "liar" {
			t.Fatalf("verify-vote %d: the lying node's product was delivered", i)
		}
		if resp.Outcome == "aborted" {
			aborted++
			if resp.VoteAgree >= 2 || resp.AnswerSig != "" || !strings.Contains(resp.Error, "refuted primary liar") {
				t.Fatalf("verify-vote %d: abort is not the typed refutation of the liar: %+v", i, resp)
			}
			continue
		}
		if i == 0 {
			t.Fatalf("the liar led the first election (n=%d, breaker closed) and it delivered: %+v", lyingN, resp)
		}
		req.Integrity = "vote"
		want, err := honest.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.VoteAgree < 2 || resp.AnswerSig != want.AnswerSig {
			t.Fatalf("verify-vote %d delivered %s on %d approvals; an honest node computes %s", i, resp.AnswerSig, resp.VoteAgree, want.AnswerSig)
		}
	}
	t.Logf("verify-vote: the liar leads n=%d, an honest node n=%d; %d of 16 elections refuted, %d cheap hits",
		lyingN, honestN, aborted, gv.m.VerifyVoteCheapHits.Value())
	if got := gv.m.VerifyVoteCheapHits.Value(); got == 0 {
		t.Error("verify_vote_cheap_hits = 0: no election was settled by the cheap pass")
	}
	if got := gv.m.QuorumFail.Value(); got != int64(aborted) {
		t.Errorf("quorum_fail = %d, want the %d refuted elections", got, aborted)
	}
	if got := gv.m.Node("liar").Suspects.Value(); got != int64(aborted) {
		t.Errorf("liar suspects = %d, want one per refuted election (%d)", got, aborted)
	}
	if gv.m.Node("n0").Suspects.Value() != 0 || gv.m.Node("n1").Suspects.Value() != 0 {
		t.Error("verify-vote suspected an honest node")
	}
}

// TestVoteSplitNoQuorum: three nodes that each return a different answer
// (three independent lying lotteries) can never assemble a majority — the
// gateway delivers a typed aborted classification, never a guess.
func TestVoteSplitNoQuorum(t *testing.T) {
	g := voteGateway(t, 3, 3,
		NodeConfig{ID: "a", BaseURL: byzNode(t, 1, 1)},
		NodeConfig{ID: "b", BaseURL: byzNode(t, 1, 2)},
		NodeConfig{ID: "c", BaseURL: serveNode(t)},
	)
	resp, err := g.Do(context.Background(),
		serve.Request{Kernel: "gemm", N: 32, Seed: 7, Integrity: "vote"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != "aborted" || resp.VoteAgree != 1 {
		t.Fatalf("split election delivered %+v", resp)
	}
	if g.m.QuorumFail.Value() != 1 {
		t.Errorf("quorum_fail = %d, want 1", g.m.QuorumFail.Value())
	}
	// Nobody held a majority, so nobody can be indicted.
	for _, id := range []string{"a", "b", "c"} {
		if g.m.Node(id).Suspects.Value() != 0 {
			t.Errorf("node %s suspected without a reached majority", id)
		}
	}
}

// TestVerifyVoteHonest: the DCRFT-style mode delivers on one computation
// plus two cheap verification passes, strips the payload, and counts the
// cheap hits the cost model banks on. n=320 is the first size class whose
// shipped answer (n²·8 bytes, base64) outgrows 1 MiB: the primary's response
// must still be read whole, not truncated into a transport error that
// charges a healthy node's breaker.
func TestVerifyVoteHonest(t *testing.T) {
	for _, n := range []int{48, 320} {
		node := func() string {
			svc := serve.New(serve.Config{MaxConcurrency: 2, QueueDepth: 64, QueueTimeout: 30 * time.Second, MaxN: n})
			ts := httptest.NewServer(serve.NewHandler(svc))
			t.Cleanup(func() { ts.Close(); svc.Close() })
			return ts.URL
		}
		g := voteGateway(t, 3, 3,
			NodeConfig{ID: "n0", BaseURL: node()},
			NodeConfig{ID: "n1", BaseURL: node()},
			NodeConfig{ID: "n2", BaseURL: node()},
		)
		resp, err := g.Do(context.Background(),
			serve.Request{Kernel: "gemm", N: n, Seed: 3, Integrity: "verify-vote"})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if resp.Outcome == "aborted" {
			t.Fatalf("n=%d: honest verify-vote aborted: %s", n, resp.Error)
		}
		if resp.VoteReplicas != 3 || resp.VoteAgree != 3 || resp.AnswerSig == "" {
			t.Errorf("n=%d: verify-vote stamps = %+v", n, resp)
		}
		if resp.Answer != nil {
			t.Errorf("n=%d: verify-vote response shipped the payload to the client", n)
		}
		if got := g.m.VerifyVoteCheapHits.Value(); got != 2 {
			t.Errorf("n=%d: verify_vote_cheap_hits = %d, want 2", n, got)
		}
		if g.m.QuorumFail.Value() != 0 {
			t.Errorf("n=%d: quorum_fail = %d, want 0", n, g.m.QuorumFail.Value())
		}
		for _, id := range []string{"n0", "n1", "n2"} {
			if got := g.m.Node(id).TransportErrors.Value(); got != 0 {
				t.Errorf("n=%d: node %s charged %d transport errors on a healthy exchange", n, id, got)
			}
		}
	}
}

// TestVerifyVoteRefutesLyingPrimary: when every node lies, the primary's
// internally consistent wrong product is refuted by the replicated
// checksum pass — typed abort, primary suspected, nothing delivered.
func TestVerifyVoteRefutesLyingPrimary(t *testing.T) {
	g := voteGateway(t, 3, 3,
		NodeConfig{ID: "l0", BaseURL: byzNode(t, 1, 10)},
		NodeConfig{ID: "l1", BaseURL: byzNode(t, 1, 11)},
		NodeConfig{ID: "l2", BaseURL: byzNode(t, 1, 12)},
	)
	resp, err := g.Do(context.Background(),
		serve.Request{Kernel: "gemm", N: 48, Seed: 9, Integrity: "verify-vote"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != "aborted" || resp.VoteAgree != 1 {
		t.Fatalf("lying primary delivered: %+v", resp)
	}
	if resp.Answer != nil || len(resp.AnswerSig) != 0 {
		t.Errorf("aborted verify-vote leaked answer fields: %+v", resp)
	}
	if g.m.QuorumFail.Value() != 1 {
		t.Errorf("quorum_fail = %d, want 1", g.m.QuorumFail.Value())
	}
	if g.m.SuspectsTotal.Value() != 1 {
		t.Errorf("suspects_total = %d, want 1 (the refuted primary)", g.m.SuspectsTotal.Value())
	}
}

// TestVerifyVoteGatewayRefusals: the gateway's own pass over the primary's
// shipped product refuses, before any verifier is asked, bytes that do not
// hash to the answer_sig the primary signed, an answer of the wrong length or
// none, and a product json cannot project (a NaN, ±Inf, or finite entries
// whose projection overflows; an honest product of finite operands has
// none). Each is a typed abort with the primary suspected and QuorumFail
// counted. Every fake node approves whatever verify task it is sent, so a
// refusal the gateway left to its verifiers would be delivered.
func TestVerifyVoteGatewayRefusals(t *testing.T) {
	const n, seed = 16, 4
	c := mat.Mul(mat.Random(n, n, seed), mat.Random(n, n, seed+1))
	signed := func(at int, vs ...float64) serve.Response {
		m := c.Clone()
		copy(m.Data[at:], vs)
		return serve.Response{Kernel: "gemm", N: n, Outcome: "corrected", Integrity: "verify-vote",
			AnswerSig: abft.BitDigest(m), Answer: abft.PackBlock(m)}
	}
	unbound, short, none := signed(0), signed(0), signed(0)
	unbound.AnswerSig = abft.BitDigest(mat.Random(n, n, 1))
	short.Answer = short.Answer[:8*n*n-8]
	none.Answer = nil
	for name, primary := range map[string]serve.Response{
		"bytes do not hash to answer_sig": unbound,
		"answer one value short":          short,
		"no answer":                       none,
		"NaN":                             signed(5, math.NaN()),
		"+Inf":                            signed(5, math.Inf(1)),
		"-Inf":                            signed(5, math.Inf(-1)),
		"projection overflows":            signed(0, math.MaxFloat64, math.MaxFloat64),
	} {
		t.Run(name, func(t *testing.T) {
			var verifies atomic.Int64
			fake := func() string {
				return stubNode(t, func(w http.ResponseWriter, r *http.Request) {
					switch r.URL.Path {
					case "/v1/verify":
						verifies.Add(1)
						json.NewEncoder(w).Encode(serve.VerifyResult{OK: true})
					case "/v1/gemm":
						json.NewEncoder(w).Encode(primary)
					default:
						http.NotFound(w, r)
					}
				})
			}
			g := voteGateway(t, 3, 3,
				NodeConfig{ID: "n0", BaseURL: fake()},
				NodeConfig{ID: "n1", BaseURL: fake()},
				NodeConfig{ID: "n2", BaseURL: fake()},
			)
			pri := rank(g.nodes, placementKey(serve.KernelGEMM, sizeClass(n)))[0].id
			resp, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: n, Seed: seed, Integrity: "verify-vote"})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Outcome != "aborted" || resp.VoteAgree > 1 || resp.AnswerSig != "" || resp.Answer != nil ||
				!strings.HasPrefix(resp.Error, vote.ErrNoQuorum.Error()) || !strings.Contains(resp.Error, "gateway refuted primary "+pri) {
				t.Fatalf("not the gateway's typed refutation of %s: %+v", pri, resp)
			}
			if got := verifies.Load(); got != 0 {
				t.Errorf("%d verify tasks forwarded, want 0", got)
			}
			if g.m.QuorumFail.Value() != 1 || g.m.Aborted.Value() != 1 {
				t.Errorf("quorum_fail = %d, aborted = %d, want 1 each", g.m.QuorumFail.Value(), g.m.Aborted.Value())
			}
			if g.m.Node(pri).Suspects.Value() != 1 || g.m.SuspectsTotal.Value() != 1 {
				t.Errorf("primary %s suspects = %d of %d in total, want the one", pri, g.m.Node(pri).Suspects.Value(), g.m.SuspectsTotal.Value())
			}
			t.Log(resp.Error)
		})
	}
}

// warmBytes warms do with four calls and returns the median, min and max
// of the heap bytes each of twenty more calls allocates.
func warmBytes(do func()) (median, least, most uint64) {
	for i := 0; i < 4; i++ {
		do()
	}
	per := make([]uint64, 20)
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		do()
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
	return per[len(per)/2], per[0], per[len(per)-1]
}

// TestWarmVerifyVoteAllocationBudget: the gateway reads the primary's product
// once and sends each verifier 2n values. With the product on the verifier
// wire, a warm n=64 request allocated about 265 KiB across the gateway and
// three nodes: two more base64 decodes of the answer (40 KiB each) and two
// net/http copy buffers for 43.7 KB task bodies (32 KiB each). With it off
// that wire, 124 KB was left, most of it the product twice: packed by the
// primary (32 KiB) and decoded by the gateway (32 KiB). Both copies now
// travel in buffers of the answer list (serve.Answer), and the primary's
// ladder keeps its object graph: about 39 KB was left, the three HTTP
// exchanges' own, and 26.7 KB since the gateway's side of each exchange is
// its node hop rather than http.Transport. It reads ≈ 9.2 KB now: every body
// of the four exchanges is decoded by its recycled body's decoder, the
// verifiers' probe vectors and the gateway's probe and projections come
// from arenas, the primary views its answer rows through its node's list,
// and the election's seats are recycled. Everything of one request, both
// ends of every exchange included, runs in this process; the median of 20
// warm requests must stay under 10 KiB (the reading plus ≈ 1 KiB), which
// json.Unmarshal back on every body (≈ 10.9 KB) would exceed, as would the
// verifiers' probe vectors back on the heap (≈ 12.2 KB).
func TestWarmVerifyVoteAllocationBudget(t *testing.T) {
	if raceEnabled {
		// Unlike the in-process serve budgets, which read the same under the
		// detector, this request makes three net/http exchanges, both ends
		// in this process: its median reads ≈ 174 KB under -race (spread
		// 40–343 KB) against ≈ 39 KB without (measured before the node
		// hop).
		t.Skip("the race detector inflates the allocation count of the HTTP exchanges")
	}
	g := voteGateway(t, 3, 3,
		NodeConfig{ID: "n0", BaseURL: serveNode(t)},
		NodeConfig{ID: "n1", BaseURL: serveNode(t)},
		NodeConfig{ID: "n2", BaseURL: serveNode(t)},
	)
	req := serve.Request{Kernel: "gemm", N: 64, Seed: 9, Integrity: "verify-vote"}
	median, least, most := warmBytes(func() {
		if resp, err := g.Do(context.Background(), req); err != nil || resp.Outcome != "corrected" || resp.VoteAgree != 3 {
			t.Fatalf("%+v, %v", resp, err)
		}
	})
	t.Logf("warm n=64 verify-vote request: %d B allocated (median of 20; min %d, max %d)", median, least, most)
	if median >= 10<<10 {
		t.Errorf("warm n=64 verify-vote request allocates %d B, budget is 10 KiB", median)
	}
}

// TestWarmVoteAllocationBudget: a plain R=3 vote, the whole n=64 request on
// three in-process nodes and one count at the gateway. Every body is decoded
// by its recycled body's decoder, each reply into a recycled record; the
// election's seats come from a recycled array; the count compares ballots in
// place and allocates one index list; each node views its answer rows
// through its own list to sign them, and makes no Done channel for a request
// that finds a free slot. It read 17 056 B while each of those was
// allocated per request, and reads 8440 B now, most of it the three
// workers' net/http servers and the gateway's hop; the median of 20 warm
// requests must stay under 9 KiB (the reading plus 776 B), which
// json.Unmarshal back on every body (≈ 9.8 KB) would exceed.
func TestWarmVoteAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the allocation count of the HTTP exchanges")
	}
	// The kernels run serially, as cmd/abftbench's workers run them: at
	// n=64 the fused product would otherwise split into row bands.
	defer mat.SetParallelism(mat.SetParallelism(1))
	g := voteGateway(t, 3, 3,
		NodeConfig{ID: "n0", BaseURL: serveNode(t)},
		NodeConfig{ID: "n1", BaseURL: serveNode(t)},
		NodeConfig{ID: "n2", BaseURL: serveNode(t)},
	)
	req := serve.Request{Kernel: "gemm", N: 64, Seed: 9, VerifyMode: "fused", Integrity: "vote"}
	median, least, most := warmBytes(func() {
		if resp, err := g.Do(context.Background(), req); err != nil || resp.Outcome != "corrected" || resp.VoteAgree != 3 {
			t.Fatalf("%+v, %v", resp, err)
		}
	})
	t.Logf("warm n=64 vote request: %d B allocated (median of 20; min %d, max %d)", median, least, most)
	if median >= 9<<10 {
		t.Errorf("warm n=64 vote request allocates %d B, budget is 9 KiB", median)
	}
}

// TestWarmAnswerBuffersRecycled: a verify-vote product is packed into a buffer
// of serve's answer list by the primary, decoded into another by the
// gateway, and both go back to that one list, shared by the gateway and the
// three nodes of this process, while other elections take them out again.
// Concurrent elections over distinct seeds and two sizes (so a recycled
// buffer is sometimes too small and sometimes larger than the product) must
// each deliver the signature an in-process node computes for its seed, with
// every verifier approving: a buffer handed back while still read, or handed
// out twice, shows as a wrong signature or a refuted primary. ci.sh runs it
// under -race.
func TestWarmAnswerBuffersRecycled(t *testing.T) {
	g := voteGateway(t, 3, 3,
		NodeConfig{ID: "n0", BaseURL: serveNode(t)},
		NodeConfig{ID: "n1", BaseURL: serveNode(t)},
		NodeConfig{ID: "n2", BaseURL: serveNode(t)},
	)
	ref := serve.New(serve.Config{QueueTimeout: time.Minute})
	t.Cleanup(ref.Close)
	ctx := context.Background()
	const callers, each = 6, 8
	reqs := make([]serve.Request, callers*each)
	want := make([]string, len(reqs))
	for i := range reqs {
		reqs[i] = serve.Request{Kernel: "gemm", N: 32 + 16*(i%2), Seed: uint64(100 + i), Integrity: "vote"}
		resp, err := ref.Do(ctx, reqs[i])
		if err != nil || resp.AnswerSig == "" {
			t.Fatalf("reference %d: %+v, %v", i, resp, err)
		}
		want[i] = resp.AnswerSig
		reqs[i].Integrity = "verify-vote"
	}
	errs := make(chan error, len(reqs))
	for c := 0; c < callers; c++ {
		go func(c int) {
			for i := c; i < len(reqs); i += callers {
				resp, err := g.Do(ctx, reqs[i])
				switch {
				case err != nil:
					errs <- fmt.Errorf("election %d: %w", i, err)
				case resp.Outcome != "corrected" || resp.VoteAgree != 3 || resp.AnswerSig != want[i]:
					errs <- fmt.Errorf("election %d (n=%d): outcome %s, %d approvals, signature %s, want corrected, 3, %s (%s)",
						i, reqs[i].N, resp.Outcome, resp.VoteAgree, resp.AnswerSig, want[i], resp.Error)
				default:
					errs <- nil
				}
			}
		}(c)
	}
	for range reqs {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestVoteDistinctNodes: an election never seats the same node twice —
// with exactly R nodes, all R ballots come from different machines.
func TestVoteDistinctNodes(t *testing.T) {
	urls := map[string]string{}
	var nodes []NodeConfig
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("n%d", i)
		urls[id] = serveNode(t)
		nodes = append(nodes, NodeConfig{ID: id, BaseURL: urls[id]})
	}
	g := voteGateway(t, 3, 3, nodes...)
	resp, err := g.Do(context.Background(),
		serve.Request{Kernel: "gemm", N: 32, Seed: 2, Integrity: "vote"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.VoteAgree != 3 {
		t.Fatalf("unanimity expected on honest pool, got agree=%d", resp.VoteAgree)
	}
	for id := range urls {
		if g.m.Node(id).Delivered.Value() != 1 {
			t.Errorf("node %s delivered %d ballots, want exactly 1",
				id, g.m.Node(id).Delivered.Value())
		}
	}
}
