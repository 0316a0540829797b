package overlay

import (
	"errors"
	"fmt"

	"telecast/internal/model"
)

// Type aliases shorten signatures in tree.go while keeping the public API in
// terms of the model package.
type (
	modelStreamID = model.StreamID
	modelViewerID = model.ViewerID
)

// Sentinel errors callers match with errors.Is.
var (
	// ErrViewerExists is returned when a viewer joins twice.
	ErrViewerExists = errors.New("viewer already joined")
	// ErrViewerUnknown is returned for operations on absent viewers.
	ErrViewerUnknown = errors.New("viewer not joined")
	// ErrRejected is returned when admission control cannot serve at
	// least the highest-priority stream of every producer site (§II-D).
	ErrRejected = errors.New("viewer request rejected")
)

// RejectReason names the admission-failure cause of a rejected request or a
// dropped stream subscription, mirroring the resource bounds of §IV–§VI.
type RejectReason uint8

const (
	// ReasonNone marks an admitted request.
	ReasonNone RejectReason = iota
	// ReasonCDNEgress: the Δ-bounded CDN egress budget C^cdn_obw is
	// exhausted and no peer layer exists to absorb the stream.
	ReasonCDNEgress
	// ReasonDelayBound: every feasible position violates the viewer-side
	// end-to-end delay bound d_max (delay-layer adaptation drop, §VI).
	ReasonDelayBound
	// ReasonDegreeExhausted: the peer layer has members but no free
	// out-degree slot and no displaceable node, and the CDN cannot absorb
	// the overflow.
	ReasonDegreeExhausted
	// ReasonInboundBound: the viewer's own inbound capacity C^u_ibw
	// cannot cover the highest-priority stream of every requested site.
	ReasonInboundBound
)

// String names the reason for logs and events.
func (r RejectReason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonCDNEgress:
		return "cdn egress exhausted"
	case ReasonDelayBound:
		return "d_max delay bound violated"
	case ReasonDegreeExhausted:
		return "peer out-degree exhausted"
	case ReasonInboundBound:
		return "viewer inbound capacity insufficient"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// DropRecord is one stream subscription the overlay had to drop during an
// operation: a delay-layer adaptation drop (§VI) or a victim the recovery
// procedure could not re-home. Records accumulate only when Params.LogDrops
// is set and are retrieved with Manager.DrainDrops.
type DropRecord struct {
	Viewer model.ViewerID
	Stream model.StreamID
	Reason RejectReason
}

func errDuplicateNode(viewer string) error {
	return fmt.Errorf("tree invariant: duplicate node for viewer %s", viewer)
}

func errOverDegree(viewer string, children, deg int) error {
	return fmt.Errorf("tree invariant: viewer %s has %d children with out-degree %d", viewer, children, deg)
}

func errBadParentLink(viewer string) error {
	return fmt.Errorf("tree invariant: broken parent link at viewer %s", viewer)
}

func errOrphanNodes(n int) error {
	return fmt.Errorf("tree invariant: %d nodes unreachable from roots", n)
}

func errCounterDrift(what string, counter, recount int) error {
	return fmt.Errorf("index invariant: %s counter %d, recount %d", what, counter, recount)
}

func errIndexDrift(viewer, what string) error {
	return fmt.Errorf("index invariant: viewer %s %s", viewer, what)
}

func errDelayOrder(viewer, what string) error {
	return fmt.Errorf("delay invariant: viewer %s %s", viewer, what)
}

func errRootBookkeeping(viewer, what string) error {
	return fmt.Errorf("root invariant: viewer %s %s", viewer, what)
}

func errDelayBound(viewer string, layer, maxLayer int) error {
	return fmt.Errorf("delay invariant: viewer %s at layer %d beyond max %d", viewer, layer, maxLayer)
}

func errViewerTreeMismatch(viewer, stream string) error {
	return fmt.Errorf("state invariant: viewer %s and tree %s disagree", viewer, stream)
}

func errRecordDrift(viewer, what string) error {
	return fmt.Errorf("state invariant: viewer %s %s", viewer, what)
}

func errWorklist(queued int) error {
	return fmt.Errorf("state invariant: %d subscription passes left queued", queued)
}

func errSpareStore(what string) error {
	return fmt.Errorf("state invariant: spare node store %s", what)
}

func errCDNAccounting(stream string, got, want float64) error {
	return fmt.Errorf("cdn invariant: stream %s accounts %v Mbps, trees imply %v", stream, got, want)
}

func errKappaBound(viewer string, spread, kappa int) error {
	return fmt.Errorf("sync invariant: viewer %s layer spread %d exceeds kappa %d", viewer, spread, kappa)
}

func errInboundBound(viewer string, used, cap float64) error {
	return fmt.Errorf("bandwidth invariant: viewer %s inbound %v Mbps over capacity %v", viewer, used, cap)
}

func errOutboundBound(viewer string, used, cap float64) error {
	return fmt.Errorf("bandwidth invariant: viewer %s outbound %v Mbps over capacity %v", viewer, used, cap)
}
