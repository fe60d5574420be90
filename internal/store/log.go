package store

import (
	"encoding/binary"
	"hash/crc32"
)

// Record framing constants (see the package doc for the full layout).
const (
	recordMagic = "JFS1"
	headerSize  = 4 + 1 + 4 + 4 // magic, type, key length, value length
	trailerSize = 4             // CRC32-C
	maxKeyBytes = 1 << 20
	maxValBytes = 64 << 20
	recTypeRun  = 1
	// recTypeDep records a deployment outcome. Nothing writes them any
	// more (see PutDeploy), but older directories hold them, so the type
	// stays valid: a scan that stopped at it would lose every record
	// after it.
	recTypeDep = 2
	// recTypeMeta records node-local bookkeeping (replication cursors).
	// Meta records live in the same log for the same crash-safety, but are
	// never exported to peers by Ingest and never count as payload.
	recTypeMeta  = 3
	minValidType = recTypeRun
	maxValidType = recTypeMeta
)

// castagnoli is the CRC32-C table every record checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record is one decoded log entry.
type record struct {
	typ byte
	key []byte
	val []byte
}

// appendRecord frames rec onto buf: header, key, value, then a CRC32-C
// over everything before the trailer.
func appendRecord(buf []byte, rec record) []byte {
	start := len(buf)
	buf = append(buf, recordMagic...)
	buf = append(buf, rec.typ)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.val)))
	buf = append(buf, rec.key...)
	buf = append(buf, rec.val...)
	sum := crc32.Checksum(buf[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// scanResult classifies what a segment scan saw after the last good record.
type scanResult struct {
	records int   // records decoded and delivered
	skipped int   // records present but failing their checksum
	tail    int64 // bytes of unusable trailing data (torn write / garbage)
}

// scanSegment walks one segment's records in order, calling fn for each
// checksum-valid record. Damage is tolerated, not fatal:
//
//   - a record whose header is intact but whose CRC fails is skipped and
//     the scan continues at the next record (a flipped byte loses one
//     record, not the segment);
//   - a header that is truncated, carries a wrong magic, an unknown type,
//     or an implausible length ends the scan (a torn append or rewritten
//     region — nothing after it can be trusted).
func scanSegment(data []byte, fn func(rec record)) scanResult {
	var res scanResult
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < headerSize {
			res.tail = int64(len(rest))
			return res
		}
		if string(rest[:4]) != recordMagic {
			res.tail = int64(len(rest))
			return res
		}
		typ := rest[4]
		keyLen := binary.LittleEndian.Uint32(rest[5:9])
		valLen := binary.LittleEndian.Uint32(rest[9:13])
		if typ < minValidType || typ > maxValidType ||
			keyLen > maxKeyBytes || valLen > maxValBytes {
			res.tail = int64(len(rest))
			return res
		}
		total := headerSize + int(keyLen) + int(valLen) + trailerSize
		if len(rest) < total {
			res.tail = int64(len(rest))
			return res
		}
		body := rest[:total-trailerSize]
		want := binary.LittleEndian.Uint32(rest[total-trailerSize : total])
		if crc32.Checksum(body, castagnoli) != want {
			res.skipped++
			off += total
			continue
		}
		fn(record{
			typ: typ,
			key: rest[headerSize : headerSize+int(keyLen)],
			val: rest[headerSize+int(keyLen) : total-trailerSize],
		})
		res.records++
		off += total
	}
	return res
}
