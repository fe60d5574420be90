package store

import (
	"encoding/json"

	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/sim"
)

// GetRun returns the persisted MethodRun for k, if present and decodable.
// The caller re-stamps the per-policy Config labels with the requesting
// configuration's name (the key is geometry-based, so the label of the
// process that computed the run may differ).
func (s *Store) GetRun(k RunKey) (sim.MethodRun, bool) {
	// The key is built on the stack: a warm hit allocates nothing for it
	// (a key longer than the buffer grows onto the heap).
	var buf [256]byte
	val, ok := s.get(k.appendKey(buf[:0]), recTypeRun)
	if !ok {
		s.runMisses.Add(1)
		return sim.MethodRun{}, false
	}
	var run sim.MethodRun
	if err := run.UnmarshalBinary(val); err != nil {
		// An undecodable value (codec bump without an engine bump) is a
		// miss; the fresh result will supersede it.
		s.runMisses.Add(1)
		return sim.MethodRun{}, false
	}
	s.runHits.Add(1)
	return run, true
}

// PutRun persists one completed MethodRun under k.
func (s *Store) PutRun(k RunKey, run sim.MethodRun) {
	val, err := run.MarshalBinary()
	if err != nil {
		s.putErrors.Add(1)
		return
	}
	s.put(recTypeRun, k.encode(), val)
}

// deployRecord is the JSON value of a persisted deployment outcome: either
// a fabric rejection (Failed) or the pure derived data of a successful
// placement + address resolution. The method body and fabric themselves
// are not stored — they are reattached from the live registry on load,
// guarded by the MethodHash and geometry in the key. Directories written
// before deployments left the store hold these; they replay, replicate
// and compact like any record, and nothing reads them (see PutDeploy).
type deployRecord struct {
	Failed    bool   `json:"failed,omitempty"`
	ErrMethod string `json:"errMethod,omitempty"`
	ErrReason string `json:"errReason,omitempty"`

	NodeOf  []int             `json:"nodeOf,omitempty"`
	MaxNode int               `json:"maxNode,omitempty"`
	Targets [][]fabric.Target `json:"targets,omitempty"`
	Sources [][]int           `json:"sources,omitempty"`
	QUp     []int32           `json:"qUp,omitempty"`
	MaxQUp  int               `json:"maxQUp,omitempty"`
	Cycles  int               `json:"cycles,omitempty"`
	Merges  int               `json:"merges,omitempty"`
	// BackMerges is structurally 0 for any resolution that succeeded.
}

// PutDeploy persists the outcome of deploying a method: a successful
// resolution, or a *fabric.LoadError rejection. Other error kinds are not
// persisted (they cannot be reconstructed as their concrete type, and the
// sweep paths only memoize rejections).
//
// Deprecated: no serving path reads or writes deployment records any
// more — recomputing a placement costs less than decoding a stored one,
// so deployments are cached in memory per process only. It remains for
// the repository benchmark's replay, which still times it, and goes once
// that replay stops calling it.
func (s *Store) PutDeploy(k DeployKey, res *fabric.Resolution, derr error) {
	var rec deployRecord
	switch {
	case derr != nil:
		le, ok := derr.(*fabric.LoadError)
		if !ok {
			return
		}
		rec = deployRecord{Failed: true, ErrMethod: le.Method, ErrReason: le.Reason}
	case res != nil:
		// The record keeps the per-instruction lists (an empty one as
		// null) and pass 1's sources that earlier versions held in memory,
		// so its bytes do not depend on how a resolution is held.
		m := res.Placement.Method
		targets := make([][]fabric.Target, len(m.Code))
		sources := make([][]int, len(m.Code))
		src := fabric.AddressesDown(m)
		for i := range m.Code {
			if tgts := res.TargetsOf(i); len(tgts) > 0 {
				targets[i] = tgts
			}
			for _, s := range src.Of(i) {
				sources[i] = append(sources[i], int(s))
			}
		}
		rec = deployRecord{
			NodeOf:  res.Placement.NodeOf,
			MaxNode: res.Placement.MaxNode,
			Targets: targets,
			Sources: sources,
			QUp:     res.QUp,
			MaxQUp:  res.MaxQUp,
			Cycles:  res.Cycles,
			Merges:  res.Merges,
		}
	default:
		return
	}
	val, err := json.Marshal(rec)
	if err != nil {
		s.putErrors.Add(1)
		return
	}
	s.put(recTypeDep, k.encode(), val)
}

// GetDeploy returns the persisted deployment outcome for k, rebinding it
// to the live fabric and method. ok is false on a miss; on a hit exactly
// one of the resolution and the error is non-nil, mirroring
// sim.DeployMethod.
//
// Deprecated: no serving path reads or writes deployment records any
// more — recomputing a placement costs less than decoding a stored one,
// so deployments are cached in memory per process only. It remains for
// the repository benchmark's replay, which still times it, and goes once
// that replay stops calling it.
func (s *Store) GetDeploy(k DeployKey, f *fabric.Fabric, m *classfile.Method) (res *fabric.Resolution, ok bool, derr error) {
	val, hit := s.get(k.encode(), recTypeDep)
	if !hit {
		s.deployMisses.Add(1)
		return nil, false, nil
	}
	var rec deployRecord
	if err := json.Unmarshal(val, &rec); err != nil {
		s.deployMisses.Add(1)
		return nil, false, nil
	}
	if rec.Failed {
		s.deployHits.Add(1)
		return nil, true, &fabric.LoadError{Method: rec.ErrMethod, Reason: rec.ErrReason}
	}
	// A well-keyed record always matches the live method's shape; treat a
	// mismatch (e.g. a hand-edited store) as a miss rather than handing
	// the engine an inconsistent resolution.
	n := len(m.Code)
	if len(rec.NodeOf) != n || len(rec.Targets) != n || len(rec.Sources) != n || len(rec.QUp) != n {
		s.deployMisses.Add(1)
		return nil, false, nil
	}
	s.deployHits.Add(1)
	res = fabric.NewResolution(&fabric.Placement{
		Fabric:  f,
		Method:  m,
		NodeOf:  rec.NodeOf,
		MaxNode: rec.MaxNode,
	}, rec.Targets)
	res.QUp, res.MaxQUp, res.Cycles, res.Merges = rec.QUp, rec.MaxQUp, rec.Cycles, rec.Merges
	return res, true, nil
}
