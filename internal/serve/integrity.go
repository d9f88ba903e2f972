package serve

import (
	"fmt"
	"strings"
)

// Integrity selects how much end-to-end answer assurance a request buys
// beyond the node-local ABFT ladder. ABFT's checksum algebra covers the
// encoded kernel interior; it cannot see corruption in control flow, the
// ladder itself, or a node that returns plausible-but-wrong bytes. The
// integrity tier closes that gap with FTMR-style replication at the
// cluster gateway: replicas of the whole request (vote, FRFT-style) or of
// just the cheap verification pass (verify-vote, DCRFT-style) are placed
// on distinct nodes and the answer is delivered only on a signature
// majority.
type Integrity int

const (
	// IntegrityNone is the default: one placement, the node's oracle-gated
	// ladder is the only answer check. The hot path — requests with
	// IntegrityNone incur no signature computation anywhere.
	IntegrityNone Integrity = iota
	// IntegrityVote is FRFT-style full replication: R replicas of the
	// whole request on distinct nodes, delivered on a ⌈(R+1)/2⌉ canonical
	// output-signature majority.
	IntegrityVote
	// IntegrityVerifyVote is DCRFT-style complementary replication: one
	// node computes, R−1 nodes replicate only the O(n²) checksum
	// verification pass against the primary's shipped output.
	IntegrityVerifyVote
)

// String returns the wire name.
func (i Integrity) String() string {
	switch i {
	case IntegrityNone:
		return "none"
	case IntegrityVote:
		return "vote"
	case IntegrityVerifyVote:
		return "verify-vote"
	default:
		return fmt.Sprintf("Integrity(%d)", int(i))
	}
}

// Integrities lists the wire-admissible integrity modes.
var Integrities = []Integrity{IntegrityNone, IntegrityVote, IntegrityVerifyVote}

// ParseIntegrity maps a wire name to its Integrity. The empty string is
// IntegrityNone (the default), matching the omitempty wire encoding.
func ParseIntegrity(name string) (Integrity, error) {
	if name == "" {
		return IntegrityNone, nil
	}
	for _, i := range Integrities {
		if strings.EqualFold(i.String(), name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown integrity %q (want one of %v)", ErrBadRequest, name, Integrities)
}

// MaxReplicas bounds the per-request replica count R: a request asking for
// more replication than any sane pool provides is malformed, not merely
// unsatisfiable.
const MaxReplicas = 9
