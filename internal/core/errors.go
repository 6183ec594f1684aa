package core

import (
	"errors"
	"fmt"

	"dfccl/internal/prim"
)

// ErrRankLost is the sentinel matched by errors.Is when a collective
// fails because a participating rank left the group mid-run. The
// concrete error delivered through callbacks and Futures is a
// *RankLostError carrying the collective ID and the departed ranks.
var ErrRankLost = errors.New("core: rank lost")

// RankLostError reports that a collective was aborted because one or
// more of its participating ranks were lost (killed, preempted spot
// instance, hardware fault) while launches were in flight. Surviving
// ranks receive it from their Future; the caller is expected to Close
// the dead handle and re-form the group over the survivors (see
// (*Collective).Reform). It unwraps to ErrRankLost.
type RankLostError struct {
	// CollID is the collective whose launch was aborted.
	CollID int
	// Lost lists the departed global ranks, ascending.
	Lost []int
}

// Error formats the abort for diagnostics.
func (e *RankLostError) Error() string {
	return fmt.Sprintf("core: collective %d aborted: rank(s) %v lost", e.CollID, e.Lost)
}

// Unwrap ties the typed error to the ErrRankLost sentinel.
func (e *RankLostError) Unwrap() error { return ErrRankLost }

// BufferOverlapError reports a launch whose send and recv buffers share
// memory, of a kind that cannot run in place (prim.Kind.InPlace): an
// all-to-all(v) lands final blocks in the recv buffer while it still
// sends own blocks from the send buffer. Launch, LaunchCB and Batch
// refuse it before anything is submitted.
type BufferOverlapError struct {
	// CollID is the collective whose launch was refused.
	CollID int
	// Kind is its kind.
	Kind prim.Kind
}

// Error formats the refusal for diagnostics.
func (e *BufferOverlapError) Error() string {
	return fmt.Sprintf("core: %v collective %d launched with overlapping send and recv buffers", e.Kind, e.CollID)
}

// RankRangeError reports that Open was given a spec naming a rank the
// cluster does not have. Open refuses it before registering anything.
type RankRangeError struct {
	// Rank is the first rank of the spec outside the cluster.
	Rank int
	// Size is the cluster's GPU count: valid ranks are [0, Size).
	Size int
}

// Error formats the refusal for diagnostics.
func (e *RankRangeError) Error() string {
	return fmt.Sprintf("core: rank %d out of range for a %d-GPU cluster", e.Rank, e.Size)
}
