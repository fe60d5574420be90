package fabric

import "strconv"

// geometryLetters maps node kinds to the single-letter codes GeometryKey
// renders patterns with.
var geometryLetters = [...]byte{
	KindUniversal: 'U',
	KindArith:     'A',
	KindFloat:     'F',
	KindStorage:   'S',
	KindControl:   'C',
	KindBlank:     'B',
}

// GeometryKey renders the fabric's structural identity — width, collapsed
// flag, and node pattern — as a short stable string, e.g. "w10:UB" for the
// Sparse pattern or "w10!:U" for the collapsed Baseline. Two fabrics with
// equal keys place and resolve every method identically, so the key is
// what deployment caches and persistent result stores index by: the
// studied Compact10/Compact4/Compact2 configurations differ only in serial
// clocking and share one key (and therefore one placement). The key is
// rendered once per fabric: a fabric is immutable once a configuration
// carries it.
func (f *Fabric) GeometryKey() string {
	if f == nil {
		return "nil"
	}
	if key := f.geometry.Load(); key != nil {
		return *key
	}
	buf := make([]byte, 0, 8+len(f.Pattern))
	buf = append(buf, 'w')
	buf = strconv.AppendInt(buf, int64(f.Width), 10)
	if f.Collapsed {
		buf = append(buf, '!')
	}
	buf = append(buf, ':')
	for _, k := range f.Pattern {
		if int(k) < len(geometryLetters) {
			buf = append(buf, geometryLetters[k])
		} else {
			buf = append(buf, 'k')
			buf = strconv.AppendInt(buf, int64(k), 10)
		}
	}
	key := string(buf)
	f.geometry.Store(&key)
	return key
}
