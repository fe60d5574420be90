package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"javaflow/internal/workload"
)

// deploymentDigest pins what DeployMethod produces for the repository
// benchmark's lap: the first 800 corpus methods on every configuration.
// A change to how a placement or a resolution is stored must leave it
// byte-identical; only a change to what the fabric resolves may move it.
const deploymentDigest = "ca7b486a83c683c78e7f3191773348ca893fec4be20c9e255797543c6a8da2e6"

// TestDeploymentDigest hashes, for every deployment of the lap, the
// placement (NodeOf, MaxNode), every instruction's targets in order, the
// buffering (QUp, MaxQUp) and the resolution's counts (Cycles, Merges,
// BackMerges); for a rejection, its error text.
func TestDeploymentDigest(t *testing.T) {
	methods := workload.Corpus(2014, 1580)[:800]
	h := sha256.New()
	rejected := 0
	for _, cfg := range Configurations() {
		for _, m := range methods {
			hashString(h, cfg.Name)
			hashString(h, m.Signature())
			res, err := DeployMethod(cfg, m)
			if err != nil {
				hashString(h, "rejected")
				hashString(h, err.Error())
				rejected++
				continue
			}
			p := res.Placement
			hashInt(h, len(p.NodeOf))
			for _, node := range p.NodeOf {
				hashInt(h, node)
			}
			hashInt(h, p.MaxNode)
			for i := range p.NodeOf {
				tgts := res.TargetsOf(i)
				hashInt(h, len(tgts))
				for _, tg := range tgts {
					hashInt(h, int(tg.Consumer))
					hashInt(h, int(tg.Side))
				}
			}
			for _, q := range res.QUp {
				hashInt(h, int(q))
			}
			hashInt(h, res.MaxQUp)
			hashInt(h, res.Cycles)
			hashInt(h, res.Merges)
			hashInt(h, res.BackMerges)
		}
	}
	if rejected == 0 {
		t.Fatal("no rejection in the lap: the digest must cover one")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != deploymentDigest {
		t.Fatalf("deployment digest = %s, want %s", got, deploymentDigest)
	}
}

func hashInt(h hash.Hash, v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	h.Write(buf[:])
}

func hashString(h hash.Hash, s string) {
	hashInt(h, len(s))
	h.Write([]byte(s))
}
