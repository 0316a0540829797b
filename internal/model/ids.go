// Package model defines the 3DTI domain model used throughout 4D TeleCast:
// producer sites, camera streams, views (local and global), and the stream
// priority machinery (the differentiation function df, the local priority
// index η, and the global η−df ordering) described in §II of the paper.
package model

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// SiteID identifies a 3DTI content producer site (e.g. "A", "B").
type SiteID string

// ViewerID identifies a passive content viewer.
type ViewerID string

// StreamID identifies a single camera stream within a producer site.
// The paper writes streams as S4A: stream index 4 at Site-A.
type StreamID struct {
	Site  SiteID
	Index int
}

// String renders the paper's notation, e.g. "S4@A".
func (s StreamID) String() string {
	return "S" + strconv.Itoa(s.Index) + "@" + string(s.Site)
}

// ParseStreamID parses the "S<idx>@<site>" form produced by String.
func ParseStreamID(text string) (StreamID, error) {
	rest, ok := strings.CutPrefix(text, "S")
	if !ok {
		return StreamID{}, fmt.Errorf("parse stream id %q: missing S prefix", text)
	}
	idxStr, site, ok := strings.Cut(rest, "@")
	if !ok {
		return StreamID{}, fmt.Errorf("parse stream id %q: missing @site", text)
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil {
		return StreamID{}, fmt.Errorf("parse stream id %q: %w", text, err)
	}
	if site == "" {
		return StreamID{}, fmt.Errorf("parse stream id %q: empty site", text)
	}
	return StreamID{Site: SiteID(site), Index: idx}, nil
}

// Less orders stream IDs site-major, index-minor. It gives experiments and
// routing tables a deterministic iteration order.
func (s StreamID) Less(o StreamID) bool {
	if s.Site != o.Site {
		return s.Site < o.Site
	}
	return s.Index < o.Index
}

// Compare is Less as a three-way comparison, for the slices package's
// sorts and searches.
func (s StreamID) Compare(o StreamID) int {
	if c := cmp.Compare(s.Site, o.Site); c != 0 {
		return c
	}
	return cmp.Compare(s.Index, o.Index)
}
