package wal

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"silo/internal/vfs"
)

// LogFileInfo identifies one log segment on disk. Loggers write log.<id>
// for their first segment and log.<id>.<seq> after each rotation
// (Config.SegmentBytes); recovery groups segments by logger to compute the
// durable bound.
type LogFileInfo struct {
	Path   string
	Logger int
	Seq    uint64
}

// ListLogFiles returns the log segments in dir sorted by (logger, seq).
// A file counts only if SegmentName gives its name back exactly, so an
// alias of a real name (log.01, log.+1, log.1.0) is ignored like any other
// foreign file. An empty
// directory yields an empty slice and no error. A nil fs is the real
// filesystem, here and in every function of this package that takes one.
func ListLogFiles(fs vfs.FS, dir string) ([]LogFileInfo, error) {
	names, err := vfs.DefaultFS(fs).Glob(filepath.Join(dir, "log.*"))
	if err != nil {
		return nil, err
	}
	var infos []LogFileInfo
	for _, name := range names {
		rest := strings.TrimPrefix(filepath.Base(name), "log.")
		parts := strings.Split(rest, ".")
		if len(parts) < 1 || len(parts) > 2 {
			continue
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil || id < 0 {
			continue
		}
		var seq uint64
		if len(parts) == 2 {
			seq, err = strconv.ParseUint(parts[1], 10, 64)
			if err != nil {
				continue
			}
		}
		if filepath.Base(name) != SegmentName(id, seq) {
			continue
		}
		infos = append(infos, LogFileInfo{Path: name, Logger: id, Seq: seq})
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Logger != infos[j].Logger {
			return infos[i].Logger < infos[j].Logger
		}
		return infos[i].Seq < infos[j].Seq
	})
	return infos, nil
}

// Segment is the verified prefix of one log segment, or a piece of it
// (Split): every frame in it has a well-formed header and a matching CRC
// (pass 1 of recovery, ScanSegment). Only a Segment can be decoded (Walk),
// so entries are never read from bytes that were not checked, and the
// frames are checksummed exactly once.
type Segment struct {
	// Durable is the largest durable-epoch frame in the prefix: this
	// segment's contribution to its logger's bound d_l. It is the maximum,
	// not the last. Today a process recovers a directory before its loggers
	// start, and its epoch counter restarts above D, so the frames it appends
	// only grow; but directories written by earlier builds — which started
	// the loggers first and let each epoch tick before recovery append a
	// small d behind the large ones of the run being recovered — and crash
	// images of them hold such frames, and taking the last one would shrink
	// D to 1 and silently discard the log.
	Durable uint64
	// Size is the length of the whole file, torn tail included; a piece's
	// is its own length.
	Size int64
	// Deflated is the number of deflated frames in the prefix: how many
	// payloads a Walk inflates.
	Deflated int

	data []byte
	at   int // data[0]'s offset in the file
}

// ScanSegment checks data's frame headers and CRCs and returns the prefix
// that is usable: everything before the first torn or damaged frame in file
// order (as with any write-ahead log, what follows one is discarded), with
// the Durable and Deflated of the frames before it. No payload is looked at:
// Walk checks a payload's structure as it decodes it.
//
// workers above 1 checks the CRCs on that many goroutines: one walk over
// the frame headers, following their lengths, cuts the file at frame
// boundaries into about as many ranges of about equal bytes, and the
// ranges are checked in parallel. The result is the one a single goroutine
// finds.
func ScanSegment(data []byte, workers int) Segment {
	whole := Segment{Size: int64(len(data)), data: data}
	if workers <= 1 {
		whole.verify()
		return whole
	}
	ranges := splitFrames(data, 0, (len(data)+workers-1)/workers)
	var wg sync.WaitGroup
	for i := range ranges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ranges[i].verify()
		}()
	}
	wg.Wait()
	whole.data = data[:0]
	for i, r := range ranges {
		whole.Durable = max(whole.Durable, r.Durable)
		whole.Deflated += r.Deflated
		whole.data = data[:r.at+len(r.data)]
		if i+1 < len(ranges) && ranges[i+1].at != r.at+len(r.data) {
			break // a bad frame in range i: the prefix ends there
		}
	}
	return whole
}

// verify checks the frames of s in order, header and CRC, and cuts s at the
// first bad one, counting Durable and Deflated over those before it.
func (s *Segment) verify() {
	s.Durable, s.Deflated = 0, 0
	off := 0
	for off < len(s.data) {
		kind, _, epoch, next, err := frameAt(s.data, off, true)
		if err != nil {
			break
		}
		s.count(kind, epoch)
		off = next
	}
	s.data = s.data[:off]
}

// count adds a frame to Durable and Deflated.
func (s *Segment) count(kind byte, epoch uint64) {
	switch {
	case kind == frameDurable && epoch > s.Durable:
		s.Durable = epoch
	case kind == frameDeflated:
		s.Deflated++
	}
}

// splitFrames walks the frame headers of data, whose first byte is at offset
// at in its file, following their lengths, up to the first frame that is
// torn or of no known kind. It cuts what it passes into pieces, each ending
// at the first frame boundary at or past the next multiple of size bytes,
// the last where the walk stopped. A piece's Durable and Deflated count its
// frames by their headers alone: no CRC is checked and no payload read.
func splitFrames(data []byte, at, size int) []Segment {
	var pieces []Segment
	var p Segment
	start, off := 0, 0
	cut := func() {
		p.data, p.at, p.Size = data[start:off], at+start, int64(off-start)
		pieces, p, start = append(pieces, p), Segment{}, off
	}
	for off < len(data) {
		kind, _, epoch, next, err := frameAt(data, off, false)
		if err != nil {
			break
		}
		p.count(kind, epoch)
		if off = next; off >= (len(pieces)+1)*size {
			cut()
		}
	}
	if off > start {
		cut()
	}
	return pieces
}

// Len is the length of the verified prefix.
func (s Segment) Len() int { return len(s.data) }

// Split cuts the segment at frame boundaries into pieces of about size
// bytes, in order: each but the last ends at the first frame boundary at or
// past the next multiple of size from the segment's start, so there are at
// most Len/size pieces, rounded up. Each piece is a Segment of its own: its
// Durable and Deflated count its frames, and its Walk decodes them — in
// parallel with the other pieces' walks, if the caller likes — and names a
// bad frame by its offset in the file. An empty segment has no piece.
func (s Segment) Split(size int) []Segment {
	return splitFrames(s.data, s.at, max(size, 1))
}

// Walk decodes the segment's transactions into v, in log order, frame by
// frame (see Visitor), without copying or allocating (deflated frames are
// inflated first). It checks each frame's payload as it decodes it, once.
// A frame that does not inflate, or whose payload does not decode to its
// end, cannot come from a torn write — its CRC matched — so the walk stops
// there and returns an ErrCorrupt error naming the frame's offset in the
// file (a piece's walk too): the segment holds transactions v was not
// shown, and since the durable bound counts frames after the bad one,
// nothing recovered without them is an epoch prefix. v is shown nothing of
// a frame that does not inflate, and FrameEnd(true) ends one that does not
// decode.
func (s Segment) Walk(v Visitor) error {
	for off := 0; off < len(s.data); {
		// The prefix is verified: no error, and no second checksum.
		kind, payload, _, next, _ := frameAt(s.data, off, false)
		switch kind {
		case frameDurable:
			off = next
			continue
		case frameDeflated:
			var err error
			if payload, err = inflate(payload); err != nil {
				return fmt.Errorf("%w: the deflated frame at offset %d has a valid checksum but does not inflate", ErrCorrupt, s.at+off)
			}
		}
		v.Frame(payload, kind == frameDeflated)
		ok := walkPayload(payload, v)
		v.FrameEnd(!ok)
		if !ok {
			return fmt.Errorf("%w: the frame at offset %d has a valid checksum but does not decode", ErrCorrupt, s.at+off)
		}
		off = next
	}
	return nil
}

// DurableBound computes the global durable epoch D from per-segment
// durable epochs (Segment.Durable): segments of one logger share that logger's bound (its
// maximum — d_l only advances), and D is the minimum over loggers. With
// one segment per logger this is the plain minimum over files.
func DurableBound(infos []LogFileInfo, durables []uint64) uint64 {
	perLogger := map[int]uint64{}
	for i, fi := range infos {
		if durables[i] > perLogger[fi.Logger] {
			perLogger[fi.Logger] = durables[i]
		}
	}
	d := ^uint64(0)
	for _, dl := range perLogger {
		if dl < d {
			d = dl
		}
	}
	if d == ^uint64(0) {
		d = 0
	}
	return d
}
