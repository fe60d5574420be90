//go:build linux

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"

	"javaflow/internal/classfile"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
)

// corpusSeed is the generator seed of the method population every daemon
// serves (jfserved's own default). The corpus is held fixed and the
// benchmark's --seed only orders the work: per-method cost is heavy-tailed,
// so a different population per seed would move every cold metric by
// several percent and bury the run-to-run noise the bounds are about.
const corpusSeed = 2014

// job is one (configuration, method) execution request. index is its
// canonical position — configuration-major over the registry order of both
// lists, whatever order the seed sends it in — and is where its response
// is filed, so lap digests are comparable across workloads and seeds.
type job struct {
	index  int
	cfg    sim.Config
	method *classfile.Method
	body   []byte // pre-marshalled POST /v1/run body
}

// jobList is the seed-ordered work of one lap, shared by every workload.
type jobList struct {
	jobs  []job
	batch []byte // pre-marshalled POST /v1/batch body covering the same jobs
}

// buildJobs derives the lap's job list: the first lapMethods methods of the
// corpus (<=0 keeps all) on every configuration, sent configuration-major
// — the order POST /v1/batch runs the same lists in — with the methods
// permuted by the seed. Configuration-major keeps two jobs of one method
// lapMethods requests apart, so two concurrent connections never race the
// same deployment-cache or store key and every scraped count is exact. The
// configurations keep their registry order at every seed: which one warms
// the heap first moves a cold daemon's peak RSS by 12 %.
func buildJobs(methods []*classfile.Method, configs []sim.Config, seed int64, lapMethods int) (*jobList, error) {
	if lapMethods <= 0 || lapMethods > len(methods) {
		lapMethods = len(methods)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(lapMethods)
	jl := &jobList{}
	req := serve.BatchRequest{SummaryOnly: true}
	for _, p := range perm {
		req.Methods = append(req.Methods, methods[p].Signature())
	}
	for c, cfg := range configs {
		req.Configs = append(req.Configs, cfg.Name)
		for _, p := range perm {
			body, err := json.Marshal(serve.RunRequest{Config: cfg.Name, Method: methods[p].Signature()})
			if err != nil {
				return nil, err
			}
			jl.jobs = append(jl.jobs, job{index: c*lapMethods + p, cfg: cfg, method: methods[p], body: body})
		}
	}
	var err error
	jl.batch, err = json.Marshal(req)
	return jl, err
}

// response is what the correctness gate keeps of one reply: its status
// and the SHA-256 of its body.
type response struct {
	status int
	sum    [sha256.Size]byte
}

// lapDigest folds a lap's responses, in canonical job order, into one
// SHA-256. Two laps agree on it only if every job answered with the same
// status and the same bytes.
func lapDigest(rs []response) string {
	h := sha256.New()
	var st [2]byte
	for _, r := range rs {
		binary.BigEndian.PutUint16(st[:], uint16(r.status))
		h.Write(st[:])
		h.Write(r.sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
