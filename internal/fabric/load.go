package fabric

import (
	"fmt"
	"strings"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
)

// LoadError reports a method the fabric cannot host.
type LoadError struct {
	Method string
	Reason string
}

func (e *LoadError) Error() string {
	return fmt.Sprintf("fabric: cannot load %s: %s", e.Method, e.Reason)
}

// Placement records where each instruction of a method landed.
type Placement struct {
	Fabric *Fabric
	Method *classfile.Method
	// NodeOf[i] is the serial node index hosting instruction i.
	NodeOf []int
	// MaxNode is the highest node index used plus one — the linear span
	// of the method in the fabric (Table 19's denominator).
	MaxNode int
}

// Ratio is instructions-to-max-node (Tables 19–20; ≈1 compact, 2 sparse,
// ~3.1 heterogeneous).
func (p *Placement) Ratio() float64 {
	if len(p.NodeOf) == 0 {
		return 0
	}
	return float64(p.MaxNode) / float64(len(p.NodeOf))
}

// Loader performs the self-organizing, greedy load of Section 6.2: each
// instruction flows down the Serial Network from the Anchor and is captured
// by the first free node whose kind matches ("a matched non busy node
// accepts the instruction, marks itself busy and then continues to send
// subsequent instructions down the network", Figure 20).
type Loader struct {
	Fabric *Fabric
	// MaxNodes bounds the walk; methods that cannot place within it are
	// rejected (they would not fit the fabric). Zero means 1 << 20.
	MaxNodes int
}

// eligible rejects methods the simulation excludes wholesale: switch and
// subroutine instructions (Section 6.3, Special Instructions) — the GPP
// executes those methods instead.
func eligible(m *classfile.Method) error {
	for i := range m.Code {
		in := &m.Code[i]
		switch in.Op {
		case bytecode.Tableswitch, bytecode.Lookupswitch,
			bytecode.Jsr, bytecode.JsrW, bytecode.Ret, bytecode.Wide:
			return &LoadError{m.Signature(),
				fmt.Sprintf("instruction %d (%s) requires GPP execution", i, in.Op)}
		}
		if in.Pop == bytecode.VarPop {
			return &LoadError{m.Signature(),
				fmt.Sprintf("instruction %d (%s) not signature-resolved", i, in.Op)}
		}
	}
	return nil
}

// Load places a verified method into the fabric.
func (l *Loader) Load(m *classfile.Method) (*Placement, error) {
	if err := classfile.Verify(m); err != nil {
		return nil, err
	}
	if err := eligible(m); err != nil {
		return nil, err
	}
	maxNodes := l.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 1 << 20
	}

	p := &Placement{
		Fabric: l.Fabric,
		Method: m,
		NodeOf: make([]int, len(m.Code)),
	}
	// Placement is monotonic along the serial network: instruction i+1 is
	// accepted by the first matching node after instruction i's node, so
	// linear (serial) addresses remain in physical order — the property
	// the ordered networks' next-instruction routing relies on
	// (Section 4.2). This is what yields the Sparse2 ratio of exactly 2
	// and the heterogeneous ratio of ~3 (Table 19).
	cursor := 0
	for i := range m.Code {
		in := &m.Code[i]
		group := in.Op.Group()
		placed := false
		for n := cursor; n < maxNodes; n++ {
			if !l.Fabric.Kind(n).Accepts(group) {
				continue
			}
			cursor = n + 1
			p.NodeOf[i] = n
			if n+1 > p.MaxNode {
				p.MaxNode = n + 1
			}
			placed = true
			break
		}
		if !placed {
			return nil, &LoadError{m.Signature(),
				fmt.Sprintf("no %s-capable node within %d for instruction %d (%s)",
					KindFor(group), maxNodes, i, in.Op)}
		}
	}
	return p, nil
}

// DescribeLoad renders where the load walk put each instruction — node,
// position and kind — and the span it took (the Figure 20 demonstration).
func (p *Placement) DescribeLoad() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loading %s into %d-wide fabric:\n", p.Method.Signature(), p.Fabric.Width)
	for i, n := range p.NodeOf {
		x, y := p.Fabric.Position(n)
		fmt.Fprintf(&b, "  inst %3d %-18s -> node %3d (%d,%d) %s\n",
			i, p.Method.Code[i].String(), n, x, y, p.Fabric.Kind(n))
	}
	fmt.Fprintf(&b, "  span: %d nodes for %d instructions (ratio %.2f)\n",
		p.MaxNode, len(p.NodeOf), p.Ratio())
	return b.String()
}
