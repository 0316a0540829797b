package overlay

import (
	"telecast/internal/model"
)

// bwEpsilon absorbs float accumulation error in capacity comparisons.
const bwEpsilon = 1e-9

// SupplyFunc reports whether the distribution side (P2P tree or CDN) can
// currently support one more subscriber of the stream at the given bitrate.
type SupplyFunc func(id model.StreamID, bitrateMbps float64) bool

// AllocateInbound performs the inbound bandwidth allocation of §IV-B1:
// streams are granted their required bandwidth in priority order while
// (1) inbound capacity remains at the viewer and (2) the P2P layer or CDN
// has outbound supply. Allocation stops at the first violation — lower
// priority streams get nothing and are removed from the request.
//
// The accepted streams are therefore always a prefix of req.Streams, and
// that prefix is what is returned: a subslice of the request, capped at its
// length so an append cannot write into the request, and no copy. The
// caller shares it read-only, like the request itself.
func AllocateInbound(req model.ViewRequest, inboundMbps float64, supply SupplyFunc) []model.RankedStream {
	var used float64
	n := 0
	for _, rs := range req.Streams {
		bw := rs.Stream.BitrateMbps
		if used+bw > inboundMbps+bwEpsilon {
			break
		}
		if supply != nil && !supply(rs.Stream.ID, bw) {
			break
		}
		used += bw
		n++
	}
	return req.Streams[:n:n]
}

// CoversAllSites reports whether the accepted prefix contains at least one
// stream from every site of the request, given as its distinct sites (a
// view group's Sites). Because acceptance cuts from the low-priority end, a
// covered site is always covered by its highest-priority stream; the
// admission rule N^u_accepted ≥ n (§II-D) therefore reduces to this check.
// The site and stream sets are small, so the quadratic scan allocates
// nothing.
func CoversAllSites(sites []model.SiteID, accepted []model.RankedStream) bool {
	for _, site := range sites {
		covered := false
		for _, rs := range accepted {
			if rs.Stream.ID.Site == site {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// OutboundShare is one accepted stream's part of a viewer's outbound
// capacity.
type OutboundShare struct {
	// Mbps is the outbound bandwidth assigned to the stream, obw_Si.
	Mbps float64
	// Deg is the stream's out-degree ⌊obw_Si / bw_Si⌋.
	Deg int
}

// OutboundAllocation is the result of the round-robin outbound assignment.
type OutboundAllocation struct {
	// Shares is aligned with the accepted streams: Shares[i] is the
	// allocation of accepted[i], the zero share when the stream got no
	// bitrate unit.
	Shares []OutboundShare
	// UsedMbps is the total assigned outbound bandwidth.
	UsedMbps float64
}

// AllocateOutbound assigns the viewer's outbound capacity to its accepted
// streams round-robin in priority order (§IV-B1): each round grants one
// bitrate unit to every stream that still fits, starting again from the
// highest priority, until a full round makes no progress. The resulting
// invariant — higher-priority streams never have less supply than lower
// ones — is what positions the overlay in the middle of the quality vs.
// viewer-count trade-off (Fig. 8).
func AllocateOutbound(accepted []model.RankedStream, outboundMbps float64) OutboundAllocation {
	alloc := OutboundAllocation{Shares: make([]OutboundShare, len(accepted))}
	if len(accepted) == 0 {
		return alloc
	}
	for {
		progress := false
		for i, rs := range accepted {
			bw := rs.Stream.BitrateMbps
			if alloc.UsedMbps+bw <= outboundMbps+bwEpsilon {
				alloc.Shares[i].Mbps += bw
				alloc.Shares[i].Deg++
				alloc.UsedMbps += bw
				progress = true
			}
		}
		if !progress {
			return alloc
		}
	}
}
