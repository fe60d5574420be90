package store

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// deployRecordDigest pins the value bytes PutDeploy writes. Directories
// written by earlier versions hold these records and replicate them, so a
// change to how a resolution is held in memory must not move them.
const deployRecordDigest = "aa7ea960030e4241a62ab027e3bede8cda342c9175a53f57d9bd50fde009a0b2"

// TestDeployRecordDigest hashes the key and value of every deployment
// record PutDeploy writes for the first 100 corpus methods on every
// configuration; the slice holds a fabric rejection.
func TestDeployRecordDigest(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	methods := workload.Corpus(2014, 1580)[:100]
	h := sha256.New()
	rejected := 0
	for _, cfg := range sim.Configurations() {
		for _, m := range methods {
			k := DeployKeyFor(cfg, m)
			res, derr := sim.DeployMethod(cfg, m)
			if derr != nil {
				rejected++
			}
			st.PutDeploy(k, res, derr)
			val, ok := st.get(k.encode(), recTypeDep)
			if !ok {
				t.Fatalf("%s on %s: no deployment record", m.Signature(), cfg.Name)
			}
			h.Write(k.encode())
			h.Write(val)
		}
	}
	if rejected == 0 {
		t.Fatal("no rejection in the slice: the digest must cover one")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != deployRecordDigest {
		t.Fatalf("deployment record digest = %s, want %s", got, deployRecordDigest)
	}
}
