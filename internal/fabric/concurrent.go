package fabric

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"javaflow/internal/classfile"
)

// ConcurrentFabric runs the self-organizing load and address-resolution
// protocols with a real goroutine per Instruction Node and channels for the
// forward/reverse Serial Networks — a Globally-Asynchronous
// Locally-Synchronous realization of Section 6.2. There is no central
// assignment: each node decides locally whether to capture an instruction,
// and needs-up messages hop node to node until a producer claims them.
//
// The deterministic simulator remains the measurement vehicle (as in the
// dissertation); this runtime demonstrates that the distributed protocol is
// implementable with purely local decisions and produces the same resolved
// dataflow.
type ConcurrentFabric struct {
	Fabric *Fabric
	// Nodes is the physical chain length. Methods that do not fit are
	// rejected. Zero means 4× the method size.
	Nodes int
	// Timeout bounds the whole protocol run.
	Timeout time.Duration
}

// message is one serial-network transfer.
type message struct {
	kind msgKind
	// load
	instrIdx int
	// needs-up
	consumer int // instruction index of the requester
	side     int
	skip     int
}

type msgKind uint8

const (
	msgLoad msgKind = iota
	msgNeed
)

// LoadAndResolve executes the distributed protocol and returns the
// placement plus per-producer targets. Results are validated to match the
// deterministic resolver by the test suite.
func (cf *ConcurrentFabric) LoadAndResolve(m *classfile.Method) (*Placement, [][]Target, error) {
	if err := classfile.Verify(m); err != nil {
		return nil, nil, err
	}
	if err := eligible(m); err != nil {
		return nil, nil, err
	}
	nNodes := cf.Nodes
	if nNodes <= 0 {
		nNodes = 4 * len(m.Code)
		if nNodes < 64 {
			nNodes = 64
		}
	}
	timeout := cf.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	// ---- Phase 1: self-organizing load. ----
	// Instructions stream down the chain; the first free matching node
	// captures each one. A node that captured instruction k refuses
	// instruction k+1 and passes it on, preserving serial order.
	type claim struct {
		instr, node int
	}
	claims := make(chan claim, len(m.Code))
	downCh := make([]chan message, nNodes+1)
	for i := range downCh {
		downCh[i] = make(chan message, 8)
	}
	var wg sync.WaitGroup
	loadCtx, loadDone := context.WithCancel(ctx)
	for n := 0; n < nNodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			// Local acceptance rule: capture only while nothing has been
			// forwarded past this node. Because instructions stream in
			// order, this keeps serial addresses in physical order with
			// no global coordination (the monotonic placement the
			// ordered networks rely on).
			free := true
			forwardedAny := false
			for {
				select {
				case <-loadCtx.Done():
					return
				case msg := <-downCh[n]:
					in := m.Code[msg.instrIdx]
					if free && !forwardedAny && cf.Fabric.Kind(n).Accepts(in.Group()) {
						free = false
						claims <- claim{msg.instrIdx, n}
						continue
					}
					forwardedAny = true
					select {
					case downCh[n+1] <- msg:
					case <-loadCtx.Done():
						return
					}
				}
			}
		}(n)
	}
	// The Anchor streams the method in order.
	go func() {
		for i := range m.Code {
			select {
			case downCh[0] <- message{kind: msgLoad, instrIdx: i}:
			case <-loadCtx.Done():
				return
			}
		}
	}()

	placement := &Placement{Fabric: cf.Fabric, Method: m, NodeOf: make([]int, len(m.Code))}
	for range m.Code {
		select {
		case c := <-claims:
			placement.NodeOf[c.instr] = c.node
			if c.node+1 > placement.MaxNode {
				placement.MaxNode = c.node + 1
			}
		case <-ctx.Done():
			loadDone()
			wg.Wait()
			return nil, nil, fmt.Errorf("fabric: concurrent load timed out (%s)", m.Signature())
		}
	}
	loadDone()
	wg.Wait()

	// Serial-order invariant: instruction order must match node order.
	for i := 1; i < len(placement.NodeOf); i++ {
		if placement.NodeOf[i] <= placement.NodeOf[i-1] {
			return nil, nil, fmt.Errorf("fabric: concurrent load broke serial order at %d", i)
		}
	}

	// ---- Phase 2: distributed needs-up resolution. ----
	targets, err := cf.resolveConcurrently(ctx, m)
	if err != nil {
		return nil, nil, err
	}
	return placement, targets, nil
}

// resolveConcurrently runs one goroutine per instruction connected by
// up/down channels, propagating needs until every message is consumed.
// Termination uses an outstanding-message counter: every send increments,
// every final consumption decrements.
func (cf *ConcurrentFabric) resolveConcurrently(ctx context.Context, m *classfile.Method) ([][]Target, error) {
	n := len(m.Code)

	// Pass 1 (addresses down) is a pure broadcast; compute sources locally
	// per node, as each node would after receiving
	// CMD_SEND_ADDRESSES_DOWN.
	sources := AddressesDown(m)

	type nodeChans struct {
		inbox chan message
	}
	// Generous buffering removes the possibility of cyclic blocking sends
	// (needs can only travel toward lower addresses, but loop back-edges
	// make the source graph cyclic).
	inboxCap := 4*n + 64
	nodes := make([]nodeChans, n)
	for i := range nodes {
		nodes[i] = nodeChans{inbox: make(chan message, inboxCap)}
	}

	var (
		mu          sync.Mutex
		targets     = make([][]Target, n)
		outstanding int64
		allDone     = make(chan struct{})
	)
	finishOne := func() {
		if atomic.AddInt64(&outstanding, -1) == 0 {
			close(allDone)
		}
	}
	send := func(to int, msg message) bool {
		atomic.AddInt64(&outstanding, 1)
		select {
		case nodes[to].inbox <- msg:
			return true
		case <-ctx.Done():
			atomic.AddInt64(&outstanding, -1)
			return false
		}
	}

	var wg sync.WaitGroup
	workCtx, stopWork := context.WithCancel(ctx)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := m.Code[i]
			captured := make(map[[2]int]bool) // (consumer, side) already handled
			for {
				select {
				case <-workCtx.Done():
					return
				case msg := <-nodes[i].inbox:
					key := [2]int{msg.consumer, msg.side}
					if captured[key] {
						finishOne()
						continue
					}
					if int(in.Push) > msg.skip {
						// This node produces the wanted value: record
						// the consumer's mesh address.
						captured[key] = true
						mu.Lock()
						targets[i] = append(targets[i], Target{Consumer: int32(msg.consumer), Side: int32(msg.side)})
						mu.Unlock()
						finishOne()
						continue
					}
					captured[key] = true
					next := msg.skip - int(in.Push) + int(in.Pop)
					for _, s := range sources.Of(i) {
						if !send(int(s), message{kind: msgNeed, consumer: msg.consumer, side: msg.side, skip: next}) {
							return
						}
					}
					finishOne()
				}
			}
		}(i)
	}

	// Kick off: every instruction emits its needs to its sources, exactly
	// as CMD_SEND_NEEDS_UP sweeps the chain.
	atomic.AddInt64(&outstanding, 1) // guard against premature zero
	for c := 0; c < n; c++ {
		in := m.Code[c]
		for side := 1; side <= int(in.Pop); side++ {
			skip := int(in.Pop) - side
			for _, s := range sources.Of(c) {
				if !send(int(s), message{kind: msgNeed, consumer: c, side: side, skip: skip}) {
					stopWork()
					wg.Wait()
					return nil, fmt.Errorf("fabric: concurrent resolve aborted (%s)", m.Signature())
				}
			}
		}
	}
	if atomic.AddInt64(&outstanding, -1) == 0 {
		close(allDone)
	}

	select {
	case <-allDone:
	case <-ctx.Done():
		stopWork()
		wg.Wait()
		return nil, fmt.Errorf("fabric: concurrent resolve timed out (%s)", m.Signature())
	}
	stopWork()
	wg.Wait()

	for i := range targets {
		// The load-time validation Resolve applies: every push must have
		// found a consumer.
		if in := &m.Code[i]; in.Push > 0 && len(targets[i]) == 0 {
			return nil, fmt.Errorf(
				"fabric: resolve %s: instruction %d (%s) pushes %d but has no consumers",
				m.Signature(), i, in.Op, in.Push)
		}
		sortTargets(targets[i])
	}
	return targets, nil
}

func sortTargets(ts []Target) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0; j-- {
			a, b := ts[j-1], ts[j]
			if a.Consumer < b.Consumer || (a.Consumer == b.Consumer && a.Side <= b.Side) {
				break
			}
			ts[j-1], ts[j] = ts[j], ts[j-1]
		}
	}
}
