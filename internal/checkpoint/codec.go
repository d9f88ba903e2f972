package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// Snapshot is a Checkpointer's state in a node-independent form: the saved
// step, the restart budget consumed so far, and every registered region by
// name. It is what leaves the node — a worker streams encoded snapshots to
// the gateway, and after a migration the replacement worker Installs the
// decoded snapshot into a freshly built Checkpointer.
type Snapshot struct {
	Step     int
	Restarts int
	Regions  []SnapRegion
}

// SnapRegion is one named slice of checkpointed state.
type SnapRegion struct {
	Name string
	Data []float64
}

// Bytes returns the payload size of the region data in bytes.
func (s Snapshot) Bytes() int {
	n := 0
	for _, r := range s.Regions {
		n += len(r.Data) * 8
	}
	return n
}

// ErrBadSnapshot is returned by Decode for any malformed input — truncated,
// corrupted (checksum mismatch), or structurally invalid. Decode never
// panics on hostile bytes.
var ErrBadSnapshot = errors.New("checkpoint: malformed snapshot")

// ErrSnapshotVersion is returned by Decode when the wire version is not one
// this build understands.
var ErrSnapshotVersion = errors.New("checkpoint: unsupported snapshot version")

// ErrSnapshotMismatch is returned by Install when a snapshot's regions do
// not line up with the Checkpointer's registered targets (different
// workload, different problem size, or a renamed region).
var ErrSnapshotMismatch = errors.New("checkpoint: snapshot does not match registered state")

// Wire format (all integers little-endian):
//
//	magic    [4]byte  "ABCP"
//	version  uint16   snapVersion
//	reserved uint16   0
//	step     uint64
//	restarts uint32
//	nregions uint32
//	regions: nameLen uint32, name [nameLen]byte, count uint64, count×float64 bits
//	trailer  uint64   FNV-1a over every preceding byte
const (
	snapVersion    = 1
	snapMagic      = "ABCP"
	maxRegionName  = 4096
	maxRegionCount = 1 << 28 // 2 GiB of float64s per region — sanity cap
)

// Encode serializes the snapshot into the versioned wire format with a
// trailing FNV-1a checksum.
func Encode(s Snapshot) []byte {
	size := 4 + 2 + 2 + 8 + 4 + 4
	for _, r := range s.Regions {
		size += 4 + len(r.Name) + 8 + 8*len(r.Data)
	}
	size += 8 // checksum trailer
	buf := make([]byte, 0, size)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint16(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Step))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Restarts))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Regions)))
	for _, r := range s.Regions {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Name)))
		buf = append(buf, r.Name...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(r.Data)))
		for _, v := range r.Data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	h := fnv.New64a()
	h.Write(buf)
	return binary.LittleEndian.AppendUint64(buf, h.Sum64())
}

// Decode parses an encoded snapshot, verifying magic, version, structure,
// and the trailing checksum. All failures return a typed error
// (ErrBadSnapshot or ErrSnapshotVersion); hostile input never panics.
func Decode(buf []byte) (Snapshot, error) {
	const header = 4 + 2 + 2 + 8 + 4 + 4
	if len(buf) < header+8 {
		return Snapshot{}, fmt.Errorf("%w: %d bytes is shorter than the fixed header", ErrBadSnapshot, len(buf))
	}
	if string(buf[:4]) != snapMagic {
		return Snapshot{}, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != snapVersion {
		return Snapshot{}, fmt.Errorf("%w: got v%d, want v%d", ErrSnapshotVersion, v, snapVersion)
	}
	body, trailer := buf[:len(buf)-8], binary.LittleEndian.Uint64(buf[len(buf)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != trailer {
		return Snapshot{}, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}

	s := Snapshot{
		Step:     int(binary.LittleEndian.Uint64(buf[8:])),
		Restarts: int(binary.LittleEndian.Uint32(buf[16:])),
	}
	nreg := binary.LittleEndian.Uint32(buf[20:])
	off := header
	rest := body[off:]
	for i := uint32(0); i < nreg; i++ {
		if len(rest) < 4 {
			return Snapshot{}, fmt.Errorf("%w: truncated region header", ErrBadSnapshot)
		}
		nameLen := binary.LittleEndian.Uint32(rest)
		if nameLen > maxRegionName || int(nameLen) > len(rest)-4 {
			return Snapshot{}, fmt.Errorf("%w: region name length %d out of range", ErrBadSnapshot, nameLen)
		}
		name := string(rest[4 : 4+nameLen])
		rest = rest[4+nameLen:]
		if len(rest) < 8 {
			return Snapshot{}, fmt.Errorf("%w: truncated region count", ErrBadSnapshot)
		}
		count := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		if count > maxRegionCount || count*8 > uint64(len(rest)) {
			return Snapshot{}, fmt.Errorf("%w: region %q claims %d floats, %d bytes remain", ErrBadSnapshot, name, count, len(rest))
		}
		data := make([]float64, count)
		for k := range data {
			data[k] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*k:]))
		}
		rest = rest[8*count:]
		s.Regions = append(s.Regions, SnapRegion{Name: name, Data: data})
	}
	if len(rest) != 0 {
		return Snapshot{}, fmt.Errorf("%w: %d trailing bytes after last region", ErrBadSnapshot, len(rest))
	}
	return s, nil
}

// Snapshot exports the last committed checkpoint as a wire-ready Snapshot,
// including the restart budget consumed so far (so a migrated job cannot
// reset its budget by changing hosts). Returns ErrNoCheckpoint before the
// first Checkpoint call.
func (c *Checkpointer) Snapshot() (Snapshot, error) {
	if !c.have {
		return Snapshot{}, ErrNoCheckpoint
	}
	s := Snapshot{Step: c.step, Restarts: c.stats.Restarts}
	for i, t := range c.targets {
		s.Regions = append(s.Regions, SnapRegion{
			Name: t.name,
			Data: append([]float64(nil), c.saved[i]...),
		})
	}
	return s, nil
}

// Install seeds the checkpointer from a decoded snapshot: the saved copies,
// the live registered data (so the workload resumes from the snapshot's
// iterate), the saved step, and the consumed restart budget. Regions must
// match the registered targets exactly, by name, order, and length —
// anything else is ErrSnapshotMismatch. Call after Register and before the
// first Checkpoint.
func (c *Checkpointer) Install(s Snapshot) error {
	if len(s.Regions) != len(c.targets) {
		return fmt.Errorf("%w: snapshot has %d regions, %d registered", ErrSnapshotMismatch, len(s.Regions), len(c.targets))
	}
	for i, t := range c.targets {
		r := s.Regions[i]
		if r.Name != t.name {
			return fmt.Errorf("%w: region %d is %q, want %q", ErrSnapshotMismatch, i, r.Name, t.name)
		}
		if len(r.Data) != len(t.data) {
			return fmt.Errorf("%w: region %q has %d floats, want %d", ErrSnapshotMismatch, r.Name, len(r.Data), len(t.data))
		}
	}
	c.ensureStorage()
	off := 0
	for i, t := range c.targets {
		copy(c.saved[i], s.Regions[i].Data)
		copy(t.data, s.Regions[i].Data)
		c.mem.TouchFloats(c.storage, off, len(t.data), true)
		c.mem.TouchFloats(t.reg, 0, len(t.data), true)
		off += len(t.data)
	}
	c.have = true
	c.step = s.Step
	c.stats.Restarts = s.Restarts
	c.stats.LastSavedStep = s.Step
	return nil
}
