// Package hier implements the multi-layer network extension of Section 7:
// a tree-structured hierarchy where every leaf runs CluDistream remote-site
// processing on its own stream, every internal node runs a coordinator over
// its children, and an internal node uploads its locally-observed global
// mixture to its parent only when that mixture changes — the event-driven
// propagation rule that keeps upper links quiet while lower levels churn.
package hier

import (
	"fmt"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/transport"
)

// Node is one vertex of the tree. Leaves carry a Site; internal nodes carry
// a Coordinator.
type Node struct {
	id       int
	parent   *Node
	children []*Node

	st    *site.Site
	coord *coordinator.Coordinator

	// mirror holds the upload-on-change state: internal nodes present
	// themselves to their parent as a single pseudo-site whose model is
	// replaced whenever the local global mixture changes materially.
	mirror *UploadMirror

	bytesUp int // bytes sent to parent
}

// ID returns the node's identifier (unique within the tree).
func (n *Node) ID() int { return n.id }

// IsLeaf reports whether the node processes a raw stream.
func (n *Node) IsLeaf() bool { return n.st != nil }

// Site returns the leaf's site processor (nil for internal nodes).
func (n *Node) Site() *site.Site { return n.st }

// Coordinator returns the internal node's coordinator (nil for leaves).
func (n *Node) Coordinator() *coordinator.Coordinator { return n.coord }

// BytesUploaded returns the bytes this node has sent to its parent.
func (n *Node) BytesUploaded() int { return n.bytesUp }

// Tree is a balanced tree of CluDistream nodes.
type Tree struct {
	root      *Node
	leaves    []*Node
	nodes     []*Node
	weightTol float64
	meanTol   float64
}

// Config parameterizes NewTree.
type Config struct {
	// Branching is the fan-out of internal nodes (≥ 1). Branching 1 models
	// a chain of single-child aggregators — a degenerate but legal Section-7
	// deployment (e.g. a relay tier in front of a WAN uplink).
	Branching int
	// Depth is the number of edges from root to leaf (≥ 1). A tree of
	// depth 1 is the flat star topology of the base paper.
	Depth int
	// Site configures every leaf (SiteID is assigned per leaf).
	Site site.Config
	// Coord configures every internal node's coordinator.
	Coord coordinator.Config
	// WeightTol and MeanTol define when an internal node's merged model
	// has changed *materially* enough to re-upload (see
	// gaussian.Mixture.ApproxEqual). Defaults 0.05 and 0.25; zero values
	// take the defaults, negative values force exact-change detection.
	WeightTol, MeanTol float64
}

// NewTree builds a balanced tree with Branching^Depth leaves.
func NewTree(cfg Config) (*Tree, error) {
	if cfg.Branching < 1 {
		return nil, fmt.Errorf("hier: branching %d", cfg.Branching)
	}
	if cfg.Depth < 1 {
		return nil, fmt.Errorf("hier: depth %d", cfg.Depth)
	}
	t := &Tree{weightTol: cfg.WeightTol, meanTol: cfg.MeanTol}
	exact := t.weightTol < 0 || t.meanTol < 0
	if t.weightTol == 0 {
		t.weightTol = 0.05
	}
	if t.meanTol == 0 {
		t.meanTol = 0.25
	}
	if t.weightTol < 0 {
		t.weightTol = 0
	}
	if t.meanTol < 0 {
		t.meanTol = 0
	}
	nextID := 1
	var build func(depth int, parent *Node) (*Node, error)
	build = func(depth int, parent *Node) (*Node, error) {
		n := &Node{id: nextID, parent: parent}
		nextID++
		t.nodes = append(t.nodes, n)
		if depth == cfg.Depth {
			sc := cfg.Site
			sc.SiteID = n.id
			st, err := site.New(sc)
			if err != nil {
				return nil, err
			}
			n.st = st
			t.leaves = append(t.leaves, n)
			return n, nil
		}
		coord, err := coordinator.New(cfg.Coord)
		if err != nil {
			return nil, err
		}
		n.coord = coord
		n.mirror = &UploadMirror{
			NodeID:    n.id,
			WeightTol: t.weightTol,
			MeanTol:   t.meanTol,
			Exact:     exact,
		}
		for i := 0; i < cfg.Branching; i++ {
			child, err := build(depth+1, n)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, child)
		}
		return n, nil
	}
	root, err := build(0, nil)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

// Root returns the root node.
func (t *Tree) Root() *Node { return t.root }

// Leaves returns the leaf nodes in construction order.
func (t *Tree) Leaves() []*Node { return append([]*Node(nil), t.leaves...) }

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// ObserveLeaf feeds one record to leaf index i and propagates any resulting
// model updates up the tree.
func (t *Tree) ObserveLeaf(i int, x linalg.Vector) error {
	if i < 0 || i >= len(t.leaves) {
		return fmt.Errorf("hier: leaf index %d of %d", i, len(t.leaves))
	}
	leaf := t.leaves[i]
	ups, err := leaf.st.Observe(x)
	if err != nil {
		return err
	}
	if len(ups) == 0 {
		return nil
	}
	parent := leaf.parent
	for _, u := range ups {
		leaf.bytesUp += transport.FromSiteUpdate(u).WireSize()
		if err := parent.coord.HandleUpdate(u); err != nil {
			return err
		}
	}
	return t.propagate(parent)
}

// propagate walks from an updated internal node to the root, re-uploading
// each node's global mixture when it changed (via the node's UploadMirror —
// the same rule cmd/aggd runs over real links).
func (t *Tree) propagate(n *Node) error {
	for ; n != nil && n.parent != nil; n = n.parent {
		msgs := n.mirror.Sync(n.coord.GlobalMixture(), n.coord.TotalWeight())
		if len(msgs) == 0 {
			return nil // no material change: the upper links stay silent
		}
		for _, m := range msgs {
			n.bytesUp += m.WireSize()
			if err := durable.Apply(n.parent.coord, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// GlobalMixture returns the root coordinator's merged model over the union
// of all leaf streams.
func (t *Tree) GlobalMixture() *gaussian.Mixture {
	return t.root.coord.GlobalMixture()
}

// TotalUploadBytes sums bytes sent on every edge of the tree.
func (t *Tree) TotalUploadBytes() int {
	var total int
	for _, n := range t.nodes {
		total += n.bytesUp
	}
	return total
}
