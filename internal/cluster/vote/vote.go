// Package vote is the pure decision core of the gateway's replica-voting
// integrity tier (FTMR-style, after the paper's lineage of replicated
// fault tolerance: FRFT replicates the whole computation, DCRFT only the
// verification pass). It knows nothing about HTTP, nodes, or scheduling —
// it counts ballots. A ballot is a replica's classified result keyed by
// (outcome, canonical answer signature): deterministic honest replicas of
// the same request produce bit-identical answers, so their ballots
// collide exactly, and honest aborts (same typed outcome, empty
// signature) vote together too. Delivery requires a strict majority of
// the requested replica count — not of the ballots that happened to
// arrive — so lost replicas can never lower the bar a lying node must
// clear.
package vote

import "errors"

// ErrNoQuorum reports that a voting request could not assemble a
// signature majority — at admission (fewer eligible distinct nodes than
// replicas requested) or at decision time (ballots split or lost). It is
// the typed boundary that keeps silent wrong answers structurally
// unreachable: without quorum the gateway returns this, never a guess.
var ErrNoQuorum = errors.New("vote: no answer-signature quorum")

// Quorum is the delivery threshold for R replicas: ⌈(R+1)/2⌉, a strict
// majority. R=1 → 1 (passthrough), R=3 → 2 (tolerates one liar or one
// loss), R=5 → 3.
func Quorum(r int) int { return (r + 2) / 2 }

// Ballot is one replica's vote.
type Ballot struct {
	// Node identifies the replica (diagnostics; distinctness is the
	// scheduler's job).
	Node string
	// Outcome is the replica's typed classification (corrected, restarted,
	// aborted).
	Outcome string
	// Sig is the canonical answer signature (abft.AnswerSig); empty for
	// aborted replicas, which carry no answer.
	Sig string
}

// same reports whether two ballots vote for the same class: the same
// outcome and the same signature.
func (b Ballot) same(o Ballot) bool { return b.Outcome == o.Outcome && b.Sig == o.Sig }

// Decision is the counted election.
type Decision struct {
	// Reached reports whether some ballot class holds a strict majority of
	// the REQUESTED replica count.
	Reached bool
	// Winner is the index (into the ballots slice) of the first ballot of
	// the winning class, -1 if none.
	Winner int
	// Agree lists the indexes of every ballot in the winning class.
	Agree []int
	// Suspects lists the indexes of ballots that disagreed with a reached
	// majority — the nodes whose answers the election proved wrong. Empty
	// when no quorum was reached: without a majority there is no ground
	// truth to indict anyone against.
	Suspects []int
	// Best is the largest agreeing-class size seen (equals len(Agree) when
	// Reached; the near-miss diagnostic otherwise).
	Best int
}

// Decide counts ballots from an election over r requested replicas. Fewer
// than r ballots may be present (lost replicas); the quorum bar stays
// ⌈(r+1)/2⌉ regardless. At most one class can reach a strict majority, so
// the outcome is never ambiguous. An election is a handful of ballots, so
// each is counted against all the others, and Agree and Suspects share one
// allocation.
func Decide(r int, ballots []Ballot) Decision {
	d := Decision{Winner: -1}
	need := Quorum(r)
	for i, b := range ballots {
		c := 0
		for _, o := range ballots {
			if o.same(b) {
				c++
			}
		}
		// Only the first ballot of a class can raise Best.
		if c > d.Best {
			d.Best = c
			if c >= need {
				d.Winner = i
			}
		}
	}
	if d.Winner < 0 {
		return d
	}
	d.Reached = true
	win := ballots[d.Winner]
	idx := make([]int, len(ballots))
	agree, suspects := idx[:0:d.Best], idx[d.Best:d.Best]
	for i, b := range ballots {
		if b.same(win) {
			agree = append(agree, i)
		} else {
			suspects = append(suspects, i)
		}
	}
	d.Agree = agree
	if len(suspects) > 0 {
		d.Suspects = suspects
	}
	return d
}
