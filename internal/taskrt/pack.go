package taskrt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
)

// PackedTrace is a Trace in its compact binary encoding. The encoding is
// exactly invertible: Unpack returns a trace whose every field equals the
// packed one's, float bits and nil-versus-empty slices included, and
// packing that trace again gives back the same bytes. Campaign samples,
// cache entries and results files carry traces in this form and decode
// one only where it is read (Perfetto export, obsdump, tracedump).
// encoding/json writes a PackedTrace as a base64 string.
//
// Layout (uvarint and zigzag varint as in encoding/binary, minimal
// length; f64 is the little-endian IEEE 754 bit pattern):
//
//	"ILTR" 0x01                    magic and format version
//	uvarint k, k × (uvarint len, bytes)
//	                               string table: loop names and program
//	                               tags, strictly increasing, each used
//	uvarint loops+1 (0 = nil), per loop:
//	  zigzag ΔLoopID, uvarint name, uvarint program, zigzag Exec,
//	  f64 SubmitSec, f64 DoneSec, zigzag Threads
//	uvarint tasks+1 (0 = nil)
//	uvarint N                      nodes per implied resource block
//	if N == 0: uvarint resources+1 (0 = nil), per sample:
//	  f64 TimeSec, zigzag Node, f64 MCBytes, f64 Queue
//	per task:
//	  byte flags                   bit 0 Stolen, 1 Remote, 2 Strict;
//	                               bits 3-7: the attribution fields
//	                               (Ideal, CoreSpeed, IdealMem, Locality,
//	                               Interference) whose bits are nonzero
//	  zigzag ΔLoopID, uvarint name, uvarint program, zigzag ΔExec,
//	  zigzag Lo−previous Hi, zigzag Hi−Lo, zigzag Core, zigzag Node,
//	  zigzag FromCore, f64 StartSec, f64 EndSec, f64 per flagged field
//	  if N > 0: ⌈2N/8⌉ mask bytes, bit 2n (2n+1) set when node n's
//	  MCBytes (Queue) differs from its previous sample's (0 for the
//	  first), then the f64 of each set bit in bit order
//
// Deltas are against the previous record of the same list, starting at 0.
// N > 0 exactly when the resource samples are one N-node block per task
// in task order, stamped with the task's end time: the runtime samples
// every node at each task completion, so a block's time and nodes are
// implied and only the values that changed are stored.
type PackedTrace []byte

const packMagic = "ILTR\x01"

// Minimum encoded sizes, which bound every count before it is allocated.
const (
	minLoopBytes   = 5 + 16     // 5 varints, 2 floats
	minTaskBytes   = 1 + 9 + 16 // flags, 9 varints, 2 floats
	minSampleBytes = 1 + 24     // 1 varint, 3 floats
)

// Pack encodes tr; a nil trace packs to nil.
func (tr *Trace) Pack() PackedTrace {
	if tr == nil {
		return nil
	}
	strs := tr.stringTable()
	ref := make(map[string]uint64, len(strs))
	for i, s := range strs {
		ref[s] = uint64(i)
	}
	n := blockNodes(tr)
	// Capacity for a typical trace: a few attribution fields per task and
	// one changed value per block sample, or every free sample in full.
	size := 64 + len(tr.Loops)*minLoopBytes + len(tr.Tasks)*(minTaskBytes+24)
	if n > 0 {
		size += len(tr.Resources) * 8
	} else {
		size += len(tr.Resources) * minSampleBytes
	}
	b := make([]byte, 0, size)
	b = append(b, packMagic...)
	b = binary.AppendUvarint(b, uint64(len(strs)))
	for _, s := range strs {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}

	b = appendCount(b, tr.Loops == nil, len(tr.Loops))
	prevID := 0
	for i := range tr.Loops {
		l := &tr.Loops[i]
		b = binary.AppendVarint(b, int64(l.LoopID-prevID))
		prevID = l.LoopID
		b = binary.AppendUvarint(b, ref[l.LoopName])
		b = binary.AppendUvarint(b, ref[l.Program])
		b = binary.AppendVarint(b, int64(l.Exec))
		b = appendF64(b, l.SubmitSec)
		b = appendF64(b, l.DoneSec)
		b = binary.AppendVarint(b, int64(l.Threads))
	}

	b = appendCount(b, tr.Tasks == nil, len(tr.Tasks))
	b = binary.AppendUvarint(b, uint64(n))
	if n == 0 {
		b = appendCount(b, tr.Resources == nil, len(tr.Resources))
		for _, r := range tr.Resources {
			b = appendF64(b, r.TimeSec)
			b = binary.AppendVarint(b, int64(r.Node))
			b = appendF64(b, r.MCBytes)
			b = appendF64(b, r.Queue)
		}
	}
	prevID, prevExec, prevHi := 0, 0, 0
	maskLen := (2*n + 7) / 8
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		attr := t.attrFields()
		var flags byte
		if t.Stolen {
			flags |= 1
		}
		if t.Remote {
			flags |= 2
		}
		if t.Strict {
			flags |= 4
		}
		for j, v := range attr {
			if math.Float64bits(v) != 0 {
				flags |= 8 << j
			}
		}
		b = append(b, flags)
		b = binary.AppendVarint(b, int64(t.LoopID-prevID))
		b = binary.AppendUvarint(b, ref[t.LoopName])
		b = binary.AppendUvarint(b, ref[t.Program])
		b = binary.AppendVarint(b, int64(t.Exec-prevExec))
		b = binary.AppendVarint(b, int64(t.Lo-prevHi))
		b = binary.AppendVarint(b, int64(t.Hi-t.Lo))
		prevID, prevExec, prevHi = t.LoopID, t.Exec, t.Hi
		b = binary.AppendVarint(b, int64(t.Core))
		b = binary.AppendVarint(b, int64(t.Node))
		b = binary.AppendVarint(b, int64(t.FromCore))
		b = appendF64(b, t.StartSec)
		b = appendF64(b, t.EndSec)
		for _, v := range attr {
			if math.Float64bits(v) != 0 {
				b = appendF64(b, v)
			}
		}
		if n == 0 {
			continue
		}
		block := tr.Resources[i*n : (i+1)*n]
		var prev []ResSample
		if i > 0 {
			prev = tr.Resources[(i-1)*n : i*n]
		}
		mask := len(b)
		for range maskLen {
			b = append(b, 0)
		}
		for node, r := range block {
			var pmc, pq uint64
			if prev != nil {
				pmc, pq = math.Float64bits(prev[node].MCBytes), math.Float64bits(prev[node].Queue)
			}
			if mc := math.Float64bits(r.MCBytes); mc != pmc {
				b[mask+node/4] |= 1 << (2 * (node % 4))
				b = binary.LittleEndian.AppendUint64(b, mc)
			}
			if q := math.Float64bits(r.Queue); q != pq {
				b[mask+node/4] |= 2 << (2 * (node % 4))
				b = binary.LittleEndian.AppendUint64(b, q)
			}
		}
	}
	return b
}

// Unpack decodes p. An empty PackedTrace is no trace: (nil, nil). Any
// input that Pack would not have produced is an error, so decoding never
// yields a trace that packs to different bytes; allocation is bounded by
// a constant factor of len(p).
func (p PackedTrace) Unpack() (*Trace, error) {
	if len(p) == 0 {
		return nil, nil
	}
	if len(p) < len(packMagic) || string(p[:len(packMagic)]) != packMagic {
		return nil, errors.New("taskrt: packed trace: bad magic")
	}
	u := unpacker{b: p, off: len(packMagic)}
	u.stringTable()
	tr := &Trace{}

	if n, ok := u.count(minLoopBytes); ok {
		tr.Loops = make([]LoopMark, n)
	}
	prevID := 0
	for i := range tr.Loops {
		l := &tr.Loops[i]
		l.LoopID = prevID + u.int()
		prevID = l.LoopID
		l.LoopName = u.str()
		l.Program = u.str()
		l.Exec = u.int()
		l.SubmitSec = u.f64()
		l.DoneSec = u.f64()
		l.Threads = u.int()
		if u.err != nil {
			return nil, u.err
		}
	}

	nTasks, tasksOK := u.count(minTaskBytes)
	n := u.uvarint()
	maskLen := 0
	switch {
	case n == 0:
		if nr, ok := u.count(minSampleBytes); ok {
			tr.Resources = make([]ResSample, nr)
		}
		for i := range tr.Resources {
			r := &tr.Resources[i]
			r.TimeSec = u.f64()
			r.Node = u.int()
			r.MCBytes = u.f64()
			r.Queue = u.f64()
			if u.err != nil {
				return nil, u.err
			}
		}
	case nTasks == 0 || n > uint64(u.remaining())*4:
		u.fail("resource block without tasks or beyond the input")
	default:
		maskLen = int(2*n+7) / 8
		if uint64(nTasks) > uint64(u.remaining())/uint64(maskLen) {
			u.fail("resource blocks beyond the input")
			break
		}
		tr.Resources = make([]ResSample, nTasks*int(n))
	}
	if u.err != nil {
		return nil, u.err
	}
	if tasksOK {
		tr.Tasks = make([]TaskEvent, nTasks)
	}
	nodes := int(n)
	prevID, prevExec, prevHi := 0, 0, 0
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		flags := u.byte()
		t.Stolen, t.Remote, t.Strict = flags&1 != 0, flags&2 != 0, flags&4 != 0
		t.LoopID = prevID + u.int()
		t.LoopName = u.str()
		t.Program = u.str()
		t.Exec = prevExec + u.int()
		t.Lo = prevHi + u.int()
		t.Hi = t.Lo + u.int()
		prevID, prevExec, prevHi = t.LoopID, t.Exec, t.Hi
		t.Core = u.int()
		t.Node = u.int()
		t.FromCore = u.int()
		t.StartSec = u.f64()
		t.EndSec = u.f64()
		attr := [...]*float64{&t.IdealSec, &t.CoreSpeedSec, &t.IdealMemSec, &t.LocalitySec, &t.InterferenceSec}
		for j, f := range attr {
			if flags&(8<<j) != 0 {
				*f = u.storedF64(0)
			}
		}
		if nodes > 0 {
			u.block(tr.Resources, i, nodes, maskLen, t.EndSec)
		}
		if u.err != nil {
			return nil, u.err
		}
	}

	switch {
	case u.off != len(p):
		u.fail("trailing bytes")
	case nodes == 0 && blockNodes(tr) != 0:
		u.fail("resource blocks stored as explicit samples")
	}
	for i, w := range u.used {
		want := uint64(math.MaxUint64)
		if rest := len(u.strs) - 64*i; rest < 64 {
			want = 1<<rest - 1
		}
		if w != want {
			u.fail("unused string table entry")
		}
	}
	if u.err != nil {
		return nil, u.err
	}
	return tr, nil
}

// UnmarshalJSON accepts what encoding/json writes for a PackedTrace (a
// base64 string), null, and a JSON trace object — the form version-1
// results files hold — which it packs.
func (p *PackedTrace) UnmarshalJSON(data []byte) error {
	switch {
	case string(data) == "null":
		return nil
	case len(data) > 0 && data[0] == '{':
		var tr Trace
		if err := json.Unmarshal(data, &tr); err != nil {
			return err
		}
		*p = tr.Pack()
		return nil
	}
	return json.Unmarshal(data, (*[]byte)(p))
}

// stringTable returns the distinct loop names and program tags of tr in
// increasing order.
func (tr *Trace) stringTable() []string {
	seen := map[string]bool{}
	for i := range tr.Loops {
		seen[tr.Loops[i].LoopName] = true
		seen[tr.Loops[i].Program] = true
	}
	for i := range tr.Tasks {
		seen[tr.Tasks[i].LoopName] = true
		seen[tr.Tasks[i].Program] = true
	}
	strs := make([]string, 0, len(seen))
	for s := range seen {
		strs = append(strs, s)
	}
	sort.Strings(strs)
	return strs
}

func (t *TaskEvent) attrFields() [5]float64 {
	return [5]float64{t.IdealSec, t.CoreSpeedSec, t.IdealMemSec, t.LocalitySec, t.InterferenceSec}
}

// blockNodes returns N when tr's resource samples are one block per task,
// in task order, of N samples of nodes 0..N-1 stamped with the task's end
// time — what the runtime records — and 0 otherwise.
func blockNodes(tr *Trace) int {
	nt, nr := len(tr.Tasks), len(tr.Resources)
	if nt == 0 || nr == 0 || nr%nt != 0 {
		return 0
	}
	n := nr / nt
	for i := range tr.Tasks {
		end := math.Float64bits(tr.Tasks[i].EndSec)
		for node, r := range tr.Resources[i*n : (i+1)*n] {
			if r.Node != node || math.Float64bits(r.TimeSec) != end {
				return 0
			}
		}
	}
	return n
}

func appendCount(b []byte, isNil bool, n int) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// unpacker reads a PackedTrace. The first malformed read sets err; later
// reads return zero values.
type unpacker struct {
	b   []byte
	off int
	err error
	// strs is the string table; used marks the entries read so far.
	strs []string
	used []uint64
}

func (u *unpacker) fail(msg string) {
	if u.err == nil {
		u.err = fmt.Errorf("taskrt: packed trace at byte %d: %s", u.off, msg)
	}
}

func (u *unpacker) remaining() int { return len(u.b) - u.off }

func (u *unpacker) uvarint() uint64 {
	if u.err != nil {
		return 0
	}
	v, n := binary.Uvarint(u.b[u.off:])
	if n <= 0 || (n > 1 && u.b[u.off+n-1] == 0) {
		u.fail("bad or non-minimal varint")
		return 0
	}
	u.off += n
	return v
}

// int reads a zigzag varint that must fit an int.
func (u *unpacker) int() int {
	v := u.uvarint()
	x := int64(v >> 1)
	if v&1 != 0 {
		x = ^x
	}
	if int64(int(x)) != x {
		u.fail("integer overflows int")
		return 0
	}
	return int(x)
}

func (u *unpacker) byte() byte {
	if u.err != nil {
		return 0
	}
	if u.remaining() < 1 {
		u.fail("truncated")
		return 0
	}
	u.off++
	return u.b[u.off-1]
}

func (u *unpacker) bits() uint64 {
	if u.err != nil {
		return 0
	}
	if u.remaining() < 8 {
		u.fail("truncated")
		return 0
	}
	u.off += 8
	return binary.LittleEndian.Uint64(u.b[u.off-8:])
}

func (u *unpacker) f64() float64 { return math.Float64frombits(u.bits()) }

// storedF64 reads a float that was stored because its bits differ from
// the implied value; equal bits mean the encoder would have left it out.
func (u *unpacker) storedF64(implied uint64) float64 {
	v := u.bits()
	if v == implied && u.err == nil {
		u.fail("stored value equal to the implied one")
	}
	return math.Float64frombits(v)
}

// count reads a list length stored as len+1 (0 for a nil list), checking
// that min bytes per element fit in the rest of the input.
func (u *unpacker) count(min int) (int, bool) {
	c := u.uvarint()
	if c == 0 || u.err != nil {
		return 0, false
	}
	if c-1 > uint64(u.remaining()/min) {
		u.fail("count beyond the input")
		return 0, false
	}
	return int(c - 1), true
}

// stringTable reads the string table, backed by one string allocation.
func (u *unpacker) stringTable() {
	k := u.uvarint()
	if k == 0 || u.err != nil {
		return
	}
	if k > uint64(u.remaining()) {
		u.fail("string table beyond the input")
		return
	}
	start := u.off
	for range k {
		l := u.uvarint()
		if l > uint64(u.remaining()) {
			u.fail("string beyond the input")
		}
		if u.err != nil {
			return
		}
		u.off += int(l)
	}
	region := string(u.b[start:u.off])
	strs := make([]string, k)
	pos := 0
	for i := range strs {
		l, n := binary.Uvarint(u.b[start+pos:]) // validated above
		pos += n
		strs[i] = region[pos : pos+int(l)]
		pos += int(l)
		if i > 0 && strs[i-1] >= strs[i] {
			u.fail("string table not strictly increasing")
			return
		}
	}
	u.strs, u.used = strs, make([]uint64, (k+63)/64)
}

// str reads a string table reference.
func (u *unpacker) str() string {
	i := u.uvarint()
	if u.err != nil {
		return ""
	}
	if i >= uint64(len(u.strs)) {
		u.fail("string reference out of range")
		return ""
	}
	u.used[i/64] |= 1 << (i % 64)
	return u.strs[i]
}

// block decodes task i's resource block into res.
func (u *unpacker) block(res []ResSample, i, nodes, maskLen int, end float64) {
	if u.remaining() < maskLen {
		u.fail("truncated")
		return
	}
	mask := u.b[u.off : u.off+maskLen]
	u.off += maskLen
	if spare := 2 * nodes % 8; spare != 0 && mask[maskLen-1]>>spare != 0 {
		u.fail("mask bits beyond the last node")
		return
	}
	block := res[i*nodes : (i+1)*nodes]
	var prev []ResSample
	if i > 0 {
		prev = res[(i-1)*nodes : i*nodes]
	}
	for node := range block {
		r := &block[node]
		r.TimeSec, r.Node = end, node
		var pmc, pq uint64
		if prev != nil {
			pmc, pq = math.Float64bits(prev[node].MCBytes), math.Float64bits(prev[node].Queue)
		}
		m := mask[node/4] >> (2 * (node % 4))
		r.MCBytes, r.Queue = math.Float64frombits(pmc), math.Float64frombits(pq)
		if m&1 != 0 {
			r.MCBytes = u.storedF64(pmc)
		}
		if m&2 != 0 {
			r.Queue = u.storedF64(pq)
		}
	}
}
