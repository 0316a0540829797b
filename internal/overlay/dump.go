package overlay

import (
	"fmt"
	"sort"
	"strings"

	"telecast/internal/model"
)

// DumpTrees renders the dissemination structure the way Fig. 7(b) draws it:
// one block per view group, one tree per stream, nodes annotated with
// out-degree and delay layer. The output is deterministic, which makes it
// usable in golden tests and operator tooling.
func (m *Manager) DumpTrees() string {
	var b strings.Builder
	keys := make([]model.ViewKey, 0, len(m.groups))
	for k := range m.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		g := m.groups[key]
		fmt.Fprintf(&b, "group %s (%d members)\n", shortKey(key), g.Members)
		for _, tree := range g.Trees { // already in stream order
			if tree == nil {
				continue
			}
			fmt.Fprintf(&b, "  stream %s (%d nodes, depth %d, %d free slots)\n",
				tree.Stream.ID, tree.Size(), tree.Depth(), tree.FreeSlots())
			roots := append([]*Node(nil), tree.Roots()...)
			sortNodesByID(roots)
			for _, r := range roots {
				tree.dumpNode(&b, r, 2)
			}
		}
	}
	return b.String()
}

// shortKey compresses a view key for display.
func shortKey(key model.ViewKey) string {
	s := string(key)
	if len(s) <= 40 {
		return s
	}
	return s[:37] + "..."
}

func sortNodesByID(nodes []*Node) {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Viewer() < nodes[j].Viewer() })
}

func (t *Tree) dumpNode(b *strings.Builder, n *Node, depth int) {
	parent := "CDN"
	if n.Parent != nil {
		parent = string(n.Parent.Viewer())
	}
	fmt.Fprintf(b, "%s%s deg=%d layer=%d parent=%s\n",
		strings.Repeat("  ", depth), n.Viewer(), t.deg(n), n.Layer, parent)
	children := append([]*Node(nil), n.Children...)
	sortNodesByID(children)
	for _, c := range children {
		t.dumpNode(b, c, depth+1)
	}
}
