package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/fsatomic"
)

// Columnar snapshot segment format (v2). Everything v1 carries — the rows
// in canonical sorted order plus their append indexes — is still here, but
// alongside it the file persists the struct-of-arrays layout a
// dataset.Snapshot builds in RAM: symbol table, interned uint32 string
// columns, typed numeric columns, and the failed bitmap. Every reader
// constructs the snapshot directly over the sections, mapped or read into
// the heap (rows decode lazily); a file whose columnar sections fail
// validation is rebuilt from its row sections.
//
//	header   40B  magic "HPASNAP2" | u64le folded-through seq | u64le count
//	              | u32le endian marker 0x0A0B0C0D | u32le section count
//	              | u32le reserved | u32le CRC-32C(header[0:36] + table)
//	table    32B per section: u32le kind | u32le reserved | u64le offset
//	              | u64le length | u32le CRC-32C(section) | u32le reserved
//	sections page-aligned (4096), in table order, zero-padded between
//
// All integers little-endian (the endian marker re-states it so a mapped
// reader on a foreign-endian host bails to the row rebuild instead of
// misreading columns). Published like every snapshot: staged, fsynced,
// renamed (fsatomic.WriteFile).
const (
	snapMagicV2    = "HPASNAP2"
	v2HeaderSize   = 40
	v2SecDescSize  = 32
	v2Align        = 4096
	v2EndianMarker = 0x0A0B0C0D
	v2MaxSections  = 64
	v2MaxStringLen = 1 << 20 // one interned symbol / name
)

// Section kinds. The row sections (rows, rowindex, appendidx) are all the
// row rebuild needs; the rest reconstruct the columnar layout. Readers
// ignore kinds they do not use.
//
// Kind 14 is retired and must never be reused: it held persisted hot-front
// positions and JSON fragments, which readers now compute from the columns
// and the row bytes. Files written before its retirement still carry it
// and load on the columnar rung. An older reader requires it, so it opens
// a file without it through the row rebuild: upgrade replication
// followers before their leader.
const (
	secRows      uint32 = 1 // concatenated row JSON, sorted order
	secRowIndex  uint32 = 2 // (count+1) u64le row bounds into secRows
	secAppendIdx uint32 = 3 // count u32le append indexes (a permutation)
	secSymtab    uint32 = 4 // u32le count, then per symbol u32le len | bytes
	secColApp    uint32 = 5 // count u32le symbol ids
	secColSKU    uint32 = 6
	secColAlias  uint32 = 7
	secColInput  uint32 = 8
	secColNodes  uint32 = 9  // count i32le
	secColExec   uint32 = 10 // count f64le
	secColCost   uint32 = 11
	secColFailed uint32 = 12 // ceil(count/64) u64le bitmap words
	secNames     uint32 = 13 // three string lists: apps, sku aliases, inputs
)

func alignUp(n int) int { return (n + v2Align - 1) &^ (v2Align - 1) }

//
// Writer
//

// writeSnapshotSegmentV2 stages and atomically publishes a v2 snapshot
// segment holding the image c (see dataset.Store.Image): its rows in
// canonical order with their append indexes, and its columnar state.
func writeSnapshotSegmentV2(path string, foldThrough uint64, c *dataset.Columnar) error {
	secs := []struct {
		kind uint32
		data []byte
	}{
		{secRows, c.Rows},
		{secRowIndex, putU64s(c.RowOffs)},
		{secAppendIdx, putU32s(c.AppendIdx)},
		{secSymtab, putStringList(c.Syms)},
		{secColApp, putU32s(c.App)},
		{secColSKU, putU32s(c.SKU)},
		{secColAlias, putU32s(c.Alias)},
		{secColInput, putU32s(c.Input)},
		{secColNodes, putI32s(c.Nodes)},
		{secColExec, putF64s(c.Exec)},
		{secColCost, putF64s(c.Cost)},
		{secColFailed, putU64s(c.Failed)},
		{secNames, putNames(c.Apps, c.SKUAliases, c.Inputs)},
	}

	tableEnd := v2HeaderSize + len(secs)*v2SecDescSize
	off := alignUp(tableEnd)
	offsets := make([]int, len(secs))
	for i, s := range secs {
		offsets[i] = off
		off = alignUp(off + len(s.data))
	}
	buf := make([]byte, off)
	copy(buf[0:8], snapMagicV2)
	binary.LittleEndian.PutUint64(buf[8:], foldThrough)
	binary.LittleEndian.PutUint64(buf[16:], uint64(c.Count))
	binary.LittleEndian.PutUint32(buf[24:], v2EndianMarker)
	binary.LittleEndian.PutUint32(buf[28:], uint32(len(secs)))
	for i, s := range secs {
		d := v2HeaderSize + i*v2SecDescSize
		binary.LittleEndian.PutUint32(buf[d:], s.kind)
		binary.LittleEndian.PutUint64(buf[d+8:], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(buf[d+16:], uint64(len(s.data)))
		binary.LittleEndian.PutUint32(buf[d+24:], crc32.Checksum(s.data, crcTable))
		copy(buf[offsets[i]:], s.data)
	}
	crc := crc32.Checksum(buf[0:36], crcTable)
	crc = crc32.Update(crc, crcTable, buf[v2HeaderSize:tableEnd])
	binary.LittleEndian.PutUint32(buf[36:], crc)
	return fsatomic.WriteFile(path, buf, 0o644)
}

func putU32s(v []uint32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], x)
	}
	return out
}

func putI32s(v []int32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(x))
	}
	return out
}

func putU64s(v []uint64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], x)
	}
	return out
}

func putF64s(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func putString(out []byte, s string) []byte {
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
	return append(out, s...)
}

func putStringList(list []string) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(list)))
	for _, s := range list {
		out = putString(out, s)
	}
	return out
}

func putNames(apps, aliases, inputs []string) []byte {
	out := putStringList(apps)
	out = append(out, putStringList(aliases)...)
	return append(out, putStringList(inputs)...)
}

//
// Parser (shared by the open, the row reader, the columnar loader, and Info)
//

type v2Section struct {
	kind   uint32
	off    uint64
	length uint64
	crc    uint32
}

type v2Parsed struct {
	fold  uint64
	count int
	data  []byte
	secs  []v2Section
}

// parseV2 validates the v2 header and section table over the whole file
// bytes: magic, endian marker, plausible counts, header+table CRC, and
// every section's bounds and alignment. Section payload CRCs are checked
// by section() callers per their needs.
func parseV2(data []byte, path string) (*v2Parsed, error) {
	secs, fold, count, err := parseV2Table(data, path)
	if err != nil {
		return nil, err
	}
	for _, s := range secs {
		if s.off%v2Align != 0 || s.off > uint64(len(data)) || s.length > uint64(len(data))-s.off {
			return nil, fmt.Errorf("storage: %s: section %d out of bounds", path, s.kind)
		}
	}
	return &v2Parsed{fold: fold, count: count, data: data, secs: secs}, nil
}

// parseV2Table parses and CRC-checks the fixed header and section table.
// It needs only the first v2HeaderSize + nsec*v2SecDescSize bytes of data,
// so the open and Info can call it on a small prefix read.
func parseV2Table(data []byte, path string) (secs []v2Section, fold uint64, count int, err error) {
	if len(data) < v2HeaderSize {
		return nil, 0, 0, fmt.Errorf("storage: %s: short v2 header", path)
	}
	if string(data[0:8]) != snapMagicV2 {
		return nil, 0, 0, fmt.Errorf("storage: %s: bad magic %q", path, data[0:8])
	}
	if got := binary.LittleEndian.Uint32(data[24:]); got != v2EndianMarker {
		return nil, 0, 0, fmt.Errorf("storage: %s: bad endian marker %#x", path, got)
	}
	n := binary.LittleEndian.Uint64(data[16:])
	if n > 1<<31 {
		return nil, 0, 0, fmt.Errorf("storage: %s: implausible point count %d", path, n)
	}
	nsec := binary.LittleEndian.Uint32(data[28:])
	if nsec == 0 || nsec > v2MaxSections {
		return nil, 0, 0, fmt.Errorf("storage: %s: implausible section count %d", path, nsec)
	}
	tableEnd := v2HeaderSize + int(nsec)*v2SecDescSize
	if len(data) < tableEnd {
		return nil, 0, 0, fmt.Errorf("storage: %s: short section table", path)
	}
	crc := crc32.Checksum(data[0:36], crcTable)
	crc = crc32.Update(crc, crcTable, data[v2HeaderSize:tableEnd])
	if crc != binary.LittleEndian.Uint32(data[36:]) {
		return nil, 0, 0, fmt.Errorf("storage: %s: header/table CRC mismatch", path)
	}
	secs = make([]v2Section, nsec)
	for i := range secs {
		d := v2HeaderSize + i*v2SecDescSize
		secs[i] = v2Section{
			kind:   binary.LittleEndian.Uint32(data[d:]),
			off:    binary.LittleEndian.Uint64(data[d+8:]),
			length: binary.LittleEndian.Uint64(data[d+16:]),
			crc:    binary.LittleEndian.Uint32(data[d+24:]),
		}
	}
	return secs, binary.LittleEndian.Uint64(data[8:]), int(n), nil
}

// section returns a section's bytes, optionally CRC-verified.
func (p *v2Parsed) section(kind uint32, verify bool) ([]byte, error) {
	for _, s := range p.secs {
		if s.kind != kind {
			continue
		}
		b := p.data[s.off : s.off+s.length]
		if verify && crc32.Checksum(b, crcTable) != s.crc {
			return nil, fmt.Errorf("storage: section %d CRC mismatch", kind)
		}
		return b, nil
	}
	return nil, fmt.Errorf("storage: missing section %d", kind)
}

func getU32s(b []byte, n int) ([]uint32, error) {
	if len(b) != 4*n {
		return nil, fmt.Errorf("storage: u32 section holds %d bytes, want %d", len(b), 4*n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out, nil
}

func getU64s(b []byte, n int) ([]uint64, error) {
	if len(b) != 8*n {
		return nil, fmt.Errorf("storage: u64 section holds %d bytes, want %d", len(b), 8*n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out, nil
}

// byteCursor decodes the variable-length sections sequentially.
type byteCursor struct {
	b   []byte
	err error
}

func (c *byteCursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 4 {
		c.err = errors.New("storage: truncated section")
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

// bytes returns the next n raw bytes without copying; callers that retain
// them beyond the mapped region's life must copy.
func (c *byteCursor) bytes(n uint32) []byte {
	if c.err != nil {
		return nil
	}
	if uint64(len(c.b)) < uint64(n) {
		c.err = errors.New("storage: truncated section")
		return nil
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v
}

func (c *byteCursor) str(max uint32) string {
	n := c.u32()
	if c.err == nil && n > max {
		c.err = fmt.Errorf("storage: implausible string length %d", n)
		return ""
	}
	return string(c.bytes(n)) // heap copy: strings never alias mapped memory
}

func getStringList(c *byteCursor, maxItems uint32) ([]string, error) {
	n := c.u32()
	if c.err == nil && n > maxItems {
		c.err = fmt.Errorf("storage: implausible list length %d", n)
	}
	if c.err != nil {
		return nil, c.err
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, c.str(v2MaxStringLen))
		if c.err != nil {
			return nil, c.err
		}
	}
	return out, nil
}

//
// Row reader (the rebuild rung: same result as the v1 frame parse)
//

// readRowsV2 decodes the rows of v2 segment bytes: CRC-verify the row
// sections, decode every row, scatter by append index. Only the row
// sections are required to be intact — a bit flip in a columnar section
// fails the columnar load but never this one. Compact loads through the
// same rungs as Load, so a damaged columnar section heals at the next
// compaction.
func readRowsV2(data []byte, path string) ([]dataset.Point, error) {
	p, err := parseV2(data, path)
	if err != nil {
		return nil, err
	}
	rows, err := p.section(secRows, true)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	idxRaw, err := p.section(secRowIndex, true)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	offs, err := getU64s(idxRaw, p.count+1)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	aidxRaw, err := p.section(secAppendIdx, true)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	aidx, err := getU32s(aidxRaw, p.count)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	if p.count > 0 && offs[0] != 0 {
		return nil, fmt.Errorf("storage: %s: row index does not start at 0", path)
	}
	points := make([]dataset.Point, p.count)
	seen := make([]bool, p.count)
	for k := 0; k < p.count; k++ {
		if offs[k+1] < offs[k] || offs[k+1] > uint64(len(rows)) {
			return nil, fmt.Errorf("storage: %s: row %d bounds invalid", path, k)
		}
		idx := aidx[k]
		if int(idx) >= p.count || seen[idx] {
			return nil, fmt.Errorf("storage: %s: row %d: bad append index %d", path, k, idx)
		}
		seen[idx] = true
		if err := json.Unmarshal(rows[offs[k]:offs[k+1]], &points[idx]); err != nil {
			return nil, fmt.Errorf("storage: %s: row %d: decoding point: %w", path, k, err)
		}
	}
	return points, nil
}

//
// Columnar loader
//

// hostLittleEndian reports the host byte order; the mapped column casts
// are only valid on little-endian hosts (everything baked into the format
// is little-endian).
func hostLittleEndian() bool {
	var x uint32 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// castSlice reinterprets a mapped section as a typed column without
// copying. The section must hold exactly n elements and be element-aligned
// (guaranteed by the page-aligned layout; re-checked anyway).
func castSlice[T uint32 | int32 | uint64 | float64](b []byte, n int) ([]T, error) {
	var zero T
	sz := int(unsafe.Sizeof(zero))
	if len(b) != n*sz {
		return nil, fmt.Errorf("storage: section holds %d bytes, want %d", len(b), n*sz)
	}
	if n == 0 {
		return nil, nil
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%uintptr(sz) != 0 {
		return nil, errors.New("storage: section not element-aligned")
	}
	return unsafe.Slice((*T)(p), n), nil
}

// loadMappedSnapshot maps a v2 segment (or reads it, on builds without
// mmap) and builds a store whose snapshot serves directly over the
// sections — zero-copy columns, lazy row decode. Every section it uses is
// CRC-verified up front (one sequential pass) so a bit-flipped file can
// never reach query results; any failure returns an error and the caller
// rebuilds from the rows.
func loadMappedSnapshot(path string, seq uint64) (st *dataset.Store, err error) {
	if !hostLittleEndian() {
		return nil, errors.New("storage: columnar serving requires a little-endian host")
	}
	region, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			region.unmap()
		}
	}()
	p, err := parseV2(region.data, path)
	if err != nil {
		return nil, err
	}
	if p.fold != seq {
		return nil, fmt.Errorf("storage: %s: header seq %d does not match name", path, p.fold)
	}
	sec := func(kind uint32) []byte {
		if err != nil {
			return nil
		}
		var b []byte
		b, err = p.section(kind, true)
		return b
	}
	rows := sec(secRows)
	idxRaw := sec(secRowIndex)
	aidxRaw := sec(secAppendIdx)
	symRaw := sec(secSymtab)
	appRaw, skuRaw, aliasRaw, inputRaw := sec(secColApp), sec(secColSKU), sec(secColAlias), sec(secColInput)
	nodesRaw, execRaw, costRaw, failedRaw := sec(secColNodes), sec(secColExec), sec(secColCost), sec(secColFailed)
	namesRaw := sec(secNames)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}

	c := &dataset.Columnar{Count: p.count, Rows: rows, Ref: region}
	if c.RowOffs, err = castSlice[uint64](idxRaw, p.count+1); err != nil {
		return nil, err
	}
	if c.AppendIdx, err = castSlice[uint32](aidxRaw, p.count); err != nil {
		return nil, err
	}
	if c.App, err = castSlice[uint32](appRaw, p.count); err != nil {
		return nil, err
	}
	if c.SKU, err = castSlice[uint32](skuRaw, p.count); err != nil {
		return nil, err
	}
	if c.Alias, err = castSlice[uint32](aliasRaw, p.count); err != nil {
		return nil, err
	}
	if c.Input, err = castSlice[uint32](inputRaw, p.count); err != nil {
		return nil, err
	}
	if c.Nodes, err = castSlice[int32](nodesRaw, p.count); err != nil {
		return nil, err
	}
	if c.Exec, err = castSlice[float64](execRaw, p.count); err != nil {
		return nil, err
	}
	if c.Cost, err = castSlice[float64](costRaw, p.count); err != nil {
		return nil, err
	}
	if c.Failed, err = castSlice[uint64](failedRaw, (p.count+63)/64); err != nil {
		return nil, err
	}
	symCur := &byteCursor{b: symRaw}
	if c.Syms, err = getStringList(symCur, uint32(4*p.count+8)); err != nil {
		return nil, err
	}
	nameCur := &byteCursor{b: namesRaw}
	maxNames := uint32(p.count + 1)
	if c.Apps, err = getStringList(nameCur, maxNames); err != nil {
		return nil, err
	}
	if c.SKUAliases, err = getStringList(nameCur, maxNames); err != nil {
		return nil, err
	}
	if c.Inputs, err = getStringList(nameCur, maxNames); err != nil {
		return nil, err
	}
	return dataset.NewMappedStore(c)
}

//
// Info support
//

// v2Footprint is the per-section size breakdown `dataset info` reports.
type v2Footprint struct {
	symtabBytes  int64
	columnBytes  int64
	failedBytes  int64
	rowDataBytes int64
}

// readSnapshotFootprintV2 reads just the header and table — no section
// payloads, so Info stays cheap on large stores.
func readSnapshotFootprintV2(path string) (v2Footprint, error) {
	var fp v2Footprint
	prefix, _, err := readSnapshotPrefix(path)
	if err != nil {
		return fp, err
	}
	secs, _, _, err := parseV2Table(prefix, path)
	if err != nil {
		return fp, err
	}
	for _, s := range secs {
		switch s.kind {
		case secSymtab:
			fp.symtabBytes = int64(s.length)
		case secColApp, secColSKU, secColAlias, secColInput, secColNodes, secColExec, secColCost:
			fp.columnBytes += int64(s.length)
		case secColFailed:
			fp.failedBytes = int64(s.length)
		case secRows, secRowIndex, secAppendIdx:
			fp.rowDataBytes += int64(s.length)
		}
	}
	return fp, nil
}
