package cache

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// Snapshot persistence: Save writes every completed entry to an io.Writer in
// a versioned binary format, Load inserts them back into a cache so a
// restarted process serves its first repeated request as a hit instead of
// recompiling. The format is
//
//	magic "VQCS" | uint32 version | uint64 count
//	count × ( uint32 keyLen | key | uint32 valLen | val )
//	uint32 CRC-32 (IEEE) of everything after the magic
//
// all fixed-width fields little-endian. Entries are written sorted by
// encoded key, so saving the same logical contents always produces the same
// bytes. Load verifies the magic, the version and the checksum before
// trusting anything, and rejects truncated or corrupt files with an error
// naming what failed.

// snapshotMagic brands a snapshot file; it never changes across versions.
const snapshotMagic = "VQCS"

// snapshotVersion is bumped when the payload layout changes — or when the
// meaning of the stored keys changes: v2 marked the canonical key's effort
// segment ("e=..."); v3 marks the switch to vliwq.Request.Canonical(),
// whose normalized "rq1;..." encoding replaced the raw-field
// service.CanonicalKey. Either way a stale snapshot is rejected at load (a
// logged cold start) instead of warm-starting a cache full of entries no
// new request can ever hit. Load rejects versions it does not know.
const snapshotVersion = 3

// maxSnapshotRecord caps one encoded key or value at 64 MiB. The cap exists
// so a corrupt length prefix fails with a clear error instead of a huge
// allocation.
const maxSnapshotRecord = 64 << 20

// ErrCorruptSnapshot tags every error Load returns for a malformed file
// (bad magic, unknown version, truncation, checksum mismatch, oversized
// record). Callers that warm-start treat it as "start cold", not fatal.
var ErrCorruptSnapshot = errors.New("corrupt cache snapshot")

// Codec encodes keys and values for snapshot persistence. Encode and Decode
// must round-trip: Decode(Encode(x)) yields a value equal to x. Encoders
// run outside the shard locks (the values they see are completed, immutable
// entries) but may run concurrently with cache use, and must not call back
// into the same cache.
type Codec[K comparable, V any] struct {
	EncodeKey   func(K) ([]byte, error)
	DecodeKey   func([]byte) (K, error)
	EncodeValue func(V) ([]byte, error)
	DecodeValue func([]byte) (V, error)
}

// StringKeyCodec builds a Codec for string-keyed caches from just the value
// half: keys persist as their raw bytes.
func StringKeyCodec[V any](enc func(V) ([]byte, error), dec func([]byte) (V, error)) Codec[string, V] {
	return Codec[string, V]{
		EncodeKey:   func(k string) ([]byte, error) { return []byte(k), nil },
		DecodeKey:   func(b []byte) (string, error) { return string(b), nil },
		EncodeValue: enc,
		DecodeValue: dec,
	}
}

// Save writes every completed entry to w and returns how many it wrote.
// In-flight entries (compute still running) are skipped — their value does
// not exist yet. Concurrent Do calls stay safe: each shard is locked only
// while its entries are copied out.
func (c *Cache[K, V]) Save(w io.Writer, codec Codec[K, V]) (int, error) {
	type rec struct{ key, val []byte }
	var recs []rec
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		type kv struct {
			k K
			e *entry[V]
		}
		pending := make([]kv, 0, len(sh.m))
		for k, e := range sh.m {
			if e.done.Load() {
				pending = append(pending, kv{k, e})
			}
		}
		sh.mu.Unlock()
		// Encode outside the lock: the entry is done, so val is immutable.
		for _, p := range pending {
			kb, err := codec.EncodeKey(p.k)
			if err != nil {
				return 0, fmt.Errorf("snapshot: encode key: %w", err)
			}
			vb, err := codec.EncodeValue(p.e.val)
			if err != nil {
				return 0, fmt.Errorf("snapshot: encode value: %w", err)
			}
			if len(kb) > maxSnapshotRecord || len(vb) > maxSnapshotRecord {
				return 0, fmt.Errorf("snapshot: entry exceeds %d-byte record cap", maxSnapshotRecord)
			}
			recs = append(recs, rec{kb, vb})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i].key, recs[j].key) < 0 })

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return 0, err
	}
	// Everything after the magic feeds the checksum.
	crc := crc32.NewIEEE()
	cw := io.MultiWriter(bw, crc)
	if err := binary.Write(cw, binary.LittleEndian, uint32(snapshotVersion)); err != nil {
		return 0, err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint64(len(recs))); err != nil {
		return 0, err
	}
	for _, r := range recs {
		for _, b := range [][]byte{r.key, r.val} {
			if err := binary.Write(cw, binary.LittleEndian, uint32(len(b))); err != nil {
				return 0, err
			}
			if _, err := cw.Write(b); err != nil {
				return 0, err
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return 0, err
	}
	return len(recs), bw.Flush()
}

// Load reads a snapshot written by Save and inserts its entries as
// completed values, returning how many it inserted. Keys already present
// are left untouched (the live entry wins), and bounded caches stop
// inserting into a shard at its cap rather than evicting live entries. Any
// structural problem — bad magic, unknown version, truncation, trailing
// garbage, checksum mismatch — returns an error wrapping
// ErrCorruptSnapshot and inserts nothing.
func (c *Cache[K, V]) Load(r io.Reader, codec Codec[K, V]) (int, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("%w: reading magic: %v", ErrCorruptSnapshot, err)
	}
	if string(magic) != snapshotMagic {
		return 0, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorruptSnapshot, magic, snapshotMagic)
	}
	crc := crc32.NewIEEE()
	cr := io.TeeReader(br, crc)
	var version uint32
	if err := binary.Read(cr, binary.LittleEndian, &version); err != nil {
		return 0, fmt.Errorf("%w: reading version: %v", ErrCorruptSnapshot, err)
	}
	if version != snapshotVersion {
		return 0, fmt.Errorf("%w: unknown version %d (want %d)", ErrCorruptSnapshot, version, snapshotVersion)
	}
	var count uint64
	if err := binary.Read(cr, binary.LittleEndian, &count); err != nil {
		return 0, fmt.Errorf("%w: reading entry count: %v", ErrCorruptSnapshot, err)
	}
	type rec struct {
		k K
		v V
	}
	recs := make([]rec, 0, min64(count, 4096))
	readBlob := func(what string, i uint64) ([]byte, error) {
		var n uint32
		if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("%w: entry %d: reading %s length: %v", ErrCorruptSnapshot, i, what, err)
		}
		if n > maxSnapshotRecord {
			return nil, fmt.Errorf("%w: entry %d: %s length %d exceeds %d-byte cap", ErrCorruptSnapshot, i, what, n, maxSnapshotRecord)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(cr, b); err != nil {
			return nil, fmt.Errorf("%w: entry %d: reading %s: %v", ErrCorruptSnapshot, i, what, err)
		}
		return b, nil
	}
	for i := uint64(0); i < count; i++ {
		kb, err := readBlob("key", i)
		if err != nil {
			return 0, err
		}
		vb, err := readBlob("value", i)
		if err != nil {
			return 0, err
		}
		k, err := codec.DecodeKey(kb)
		if err != nil {
			return 0, fmt.Errorf("%w: entry %d: decode key: %v", ErrCorruptSnapshot, i, err)
		}
		v, err := codec.DecodeValue(vb)
		if err != nil {
			return 0, fmt.Errorf("%w: entry %d: decode value: %v", ErrCorruptSnapshot, i, err)
		}
		recs = append(recs, rec{k, v})
	}
	sum := crc.Sum32()
	var want uint32
	if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
		return 0, fmt.Errorf("%w: reading checksum: %v", ErrCorruptSnapshot, err)
	}
	if sum != want {
		return 0, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrCorruptSnapshot, want, sum)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return 0, fmt.Errorf("%w: trailing data after checksum", ErrCorruptSnapshot)
	}

	loaded := 0
	for _, r := range recs {
		if c.insertCompleted(r.k, r.v) {
			loaded++
		}
	}
	return loaded, nil
}

// insertCompleted adds a pre-computed entry, reporting whether it went in.
// Existing keys and full shards decline the insert; counters treat a loaded
// entry like any other live entry (entry count only — no hit or miss).
func (c *Cache[K, V]) insertCompleted(k K, v V) bool {
	sh := &c.shards[c.hash(k)&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, exists := sh.m[k]; exists {
		return false
	}
	if sh.max > 0 && len(sh.m) >= sh.max {
		return false
	}
	e := &entry[V]{val: v} // completed: no caller ever waits on it
	e.done.Store(true)
	sh.m[k] = e
	c.entries.Add(1)
	return true
}

func min64(a uint64, b int) int {
	if a < uint64(b) {
		return int(a)
	}
	return b
}
