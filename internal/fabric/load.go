package fabric

import (
	"fmt"
	"strings"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
)

// Command is the network command vocabulary (Figure 14). The deterministic
// simulator and the concurrent runtime share these values.
type Command uint8

const (
	CmdLoadInstruction Command = iota
	CmdUnloadInstruction
	CmdSendAddressesDown
	CmdSendNeedsUp
	CmdHeadToken
	CmdMemoryToken
	CmdRegisterToken
	CmdTailToken
	CmdExceptionToken
	CmdQuiesce
	CmdResetAddress
	CmdSubsequentMessage
)

var commandNames = [...]string{
	"LOAD_INSTRUCTION", "UNLOAD_INSTRUCTION", "SEND_ADDRESSES_DOWN",
	"SEND_NEEDS_UP", "HEAD_TOKEN", "MEMORY_TOKEN", "REGISTER_TOKEN",
	"TAIL_TOKEN", "EXCEPTION_TOKEN", "QUIESCE", "RESET_ADDRESS",
	"SUBSEQUENT_MESSAGE",
}

func (c Command) String() string {
	if int(c) < len(commandNames) {
		return commandNames[c]
	}
	return fmt.Sprintf("CMD(%d)", uint8(c))
}

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
	// LoadTrace records the accept/skip walk for demonstration output
	// (Figure 20). Only filled when Trace is enabled on the loader.
	LoadTrace []string
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
	// Trace enables human-readable load traces on placements.
	Trace bool
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
			if l.Trace {
				x, y := l.Fabric.Position(n)
				p.LoadTrace = append(p.LoadTrace, fmt.Sprintf(
					"inst %3d %-18s -> node %3d (%d,%d) %s",
					i, in.String(), n, x, y, l.Fabric.Kind(n)))
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

// DescribeLoad renders the load trace (Figure 20 demonstration).
func (p *Placement) DescribeLoad() string {
	if len(p.LoadTrace) == 0 {
		return "(trace disabled)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "loading %s into %d-wide fabric:\n", p.Method.Signature(), p.Fabric.Width)
	for _, line := range p.LoadTrace {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  span: %d nodes for %d instructions (ratio %.2f)\n",
		p.MaxNode, len(p.NodeOf), p.Ratio())
	return b.String()
}
