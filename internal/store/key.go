package store

import (
	"strconv"

	"javaflow/internal/classfile"
	"javaflow/internal/sim"
)

// DeployKey identifies one deployment outcome: a method placed and
// address-resolved on a fabric geometry. It deliberately omits the
// configuration *name* — Compact10/Compact4/Compact2 share a geometry, so
// they share deployments (ROADMAP "cross-config deployment sharing") —
// and carries a content hash of the method body so a population change
// that reuses a signature can never replay a stale deployment. Like
// RunKey it embeds sim.EngineVersion: a placement/resolution algorithm
// change bumps the version and orphans old deployment records instead of
// replaying stale NodeOf/Targets arrays.
type DeployKey struct {
	Signature  string
	MethodHash uint64
	Geometry   string
}

func (k DeployKey) encode() []byte {
	return k.appendTo(make([]byte, 0, len(k.Signature)+len(k.Geometry)+32), "dep|e")
}

// appendTo renders "<prefix><engine>|<signature>|<hash, 16 hex digits>|<geometry>",
// the part deployment and run keys share.
func (k DeployKey) appendTo(b []byte, prefix string) []byte {
	b = append(b, prefix...)
	b = strconv.AppendInt(b, sim.EngineVersion, 10)
	b = append(b, '|')
	b = append(b, k.Signature...)
	b = append(b, '|')
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[k.MethodHash>>shift&0xf])
	}
	b = append(b, '|')
	return append(b, k.Geometry...)
}

// RunKey identifies one MethodRun: a deployment plus everything else that
// can change the engine's observable output — the serial clocking rule,
// the mesh-cycle bound, and the engine version.
type RunKey struct {
	DeployKey
	SerialPerMesh int
	MaxMeshCycles int
}

func (k RunKey) encode() []byte {
	return k.appendKey(make([]byte, 0, len(k.Signature)+len(k.Geometry)+64))
}

// appendKey appends the key's bytes to b: the shared part, then
// "|spm<SerialPerMesh>|max<MaxMeshCycles>".
func (k RunKey) appendKey(b []byte) []byte {
	b = k.appendTo(b, "run|e")
	b = append(b, "|spm"...)
	b = strconv.AppendInt(b, int64(k.SerialPerMesh), 10)
	b = append(b, "|max"...)
	return strconv.AppendInt(b, int64(k.MaxMeshCycles), 10)
}

// DeployKeyFor builds the deployment key of m on cfg's fabric.
//
// Deprecated: deployment records are no longer written or read (see
// PutDeploy); RunKeyFor builds the key every serving path uses.
func DeployKeyFor(cfg sim.Config, m *classfile.Method) DeployKey {
	return DeployKey{
		Signature:  m.Signature(),
		MethodHash: m.Hash(),
		Geometry:   cfg.Fabric.GeometryKey(),
	}
}

// RunKeyFor builds the result key of m on cfg with the given effective
// mesh-cycle bound (the caller resolves defaults first; 0 here would make
// distinct bounds collide).
func RunKeyFor(cfg sim.Config, m *classfile.Method, maxMeshCycles int) RunKey {
	return RunKey{
		DeployKey:     DeployKeyFor(cfg, m),
		SerialPerMesh: cfg.SerialPerMesh,
		MaxMeshCycles: maxMeshCycles,
	}
}
