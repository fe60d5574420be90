package store

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// GeometryStats is one fabric geometry's slice of the store: how many run
// results and deployment outcomes are live for methods on that geometry.
type GeometryStats struct {
	Geometry string `json:"geometry"`
	Runs     int    `json:"runs"`
	Deploys  int    `json:"deploys"`
}

// AdminReport is the GET /v1/store payload: the live-record inventory, the
// on-disk footprint, and the garbage ratio — the fraction of segment bytes
// not covered by this store's live index: superseded duplicates and torn
// tails, plus (in a directory shared by several live processes) segments
// other writers created since this store opened. The first two are what a
// Compact from a sole writer reclaims.
type AdminReport struct {
	Dir     string `json:"dir"`
	Records int    `json:"records"`
	// MetaRecords is how many of Records are node-local bookkeeping
	// (replication cursors) rather than payload. Meta records never cross
	// nodes, so fleet convergence is judged on Records - MetaRecords.
	MetaRecords  int             `json:"metaRecords"`
	Segments     int             `json:"segments"`
	DiskBytes    int64           `json:"diskBytes"`
	LiveBytes    int64           `json:"liveBytes"`
	GarbageRatio float64         `json:"garbageRatio" prom:"javaflow_store_garbage_ratio,gauge" help:"Fraction of on-disk bytes superseded or deleted."`
	Compactions  int64           `json:"compactions"`
	Geometries   []GeometryStats `json:"geometries"`
}

// geometryOf extracts the fabric-geometry field from an encoded record key.
// Both key forms put it fourth: "run|e1|sig|hash|w10:UB|spm2|max400000" and
// "dep|e1|sig|hash|w10:UB". Signatures never contain '|' (they are
// class/method/arity paths), so a positional split is exact.
func geometryOf(key string) (string, bool) {
	parts := strings.Split(key, "|")
	if len(parts) < 5 {
		return "", false
	}
	return parts[4], true
}

// Admin builds the admin report. DiskBytes walks the directory so it also
// counts segments written by other processes sharing the store; LiveBytes
// is what this store's index would occupy if compacted today.
func (s *Store) Admin() AdminReport {
	s.mu.Lock()
	var live int64
	perGeom := make(map[string]*GeometryStats)
	records := len(s.index)
	meta := 0
	for k, e := range s.index {
		live += int64(headerSize + len(k) + len(e.val) + trailerSize)
		if e.typ == recTypeMeta {
			meta++
			continue
		}
		geom, ok := geometryOf(k)
		if !ok {
			continue
		}
		g := perGeom[geom]
		if g == nil {
			g = &GeometryStats{Geometry: geom}
			perGeom[geom] = g
		}
		if e.typ == recTypeRun {
			g.Runs++
		} else {
			g.Deploys++
		}
	}
	s.mu.Unlock()

	var disk int64
	segments := 0
	if seqs, err := listSegments(s.dir); err == nil {
		segments = len(seqs)
		for _, seq := range seqs {
			if fi, err := os.Stat(filepath.Join(s.dir, segmentName(seq))); err == nil {
				disk += fi.Size()
			}
		}
	}

	geoms := make([]GeometryStats, 0, len(perGeom))
	for _, g := range perGeom {
		geoms = append(geoms, *g)
	}
	sort.Slice(geoms, func(i, j int) bool { return geoms[i].Geometry < geoms[j].Geometry })

	rep := AdminReport{
		Dir:         s.dir,
		Records:     records,
		MetaRecords: meta,
		Segments:    segments,
		DiskBytes:   disk,
		LiveBytes:   live,
		Compactions: s.compactions.Load(),
		Geometries:  geoms,
	}
	// Write-behind appends still in the queue make live momentarily exceed
	// disk; clamp instead of reporting a negative ratio.
	if disk > live {
		rep.GarbageRatio = float64(disk-live) / float64(disk)
	}
	return rep
}
