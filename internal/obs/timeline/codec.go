package timeline

import (
	"encoding/binary"
	"fmt"
)

// EMTL: the canonical binary timeline format. Like the EMTR trace and
// EMFX forensics codecs, the encoding is canonical — there is exactly one
// byte string for a given merged timeline, and decoding rejects anything
// that is not such a byte string — so encode∘decode and decode∘encode
// are both identities on their domains (FuzzTimelineRoundTrip enforces
// this).
//
//	header: "EMTL" | u16 version | u16 reserved=0 | u32 jobCount
//	job:    u32 id | u64 interval | u32 nSamples | u32 nMarks
//	        nSamples × sample | nMarks × mark
//	sample: 11 × u64 (the Sample vector, field order as declared)
//	mark:   u8 kind | u64 vclock | u64 value
const (
	timelineMagic   = "EMTL"
	timelineVersion = 2
	tlHeaderSize    = 12
	tlJobHeaderSize = 20
	tlSampleSize    = sampleWords * 8
	tlMarkSize      = 17
)

// Encode serialises the merged timeline (jobs in campaign-index order).
func Encode(jobs []JobTimeline) []byte {
	size := tlHeaderSize
	for _, j := range jobs {
		size += tlJobHeaderSize + tlSampleSize*len(j.Samples) + tlMarkSize*len(j.Marks)
	}
	out := make([]byte, size)
	copy(out, timelineMagic)
	binary.LittleEndian.PutUint16(out[4:], timelineVersion)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(jobs)))
	off := tlHeaderSize
	for _, j := range jobs {
		binary.LittleEndian.PutUint32(out[off:], uint32(j.ID))
		binary.LittleEndian.PutUint64(out[off+4:], j.Interval)
		binary.LittleEndian.PutUint32(out[off+12:], uint32(len(j.Samples)))
		binary.LittleEndian.PutUint32(out[off+16:], uint32(len(j.Marks)))
		off += tlJobHeaderSize
		for i := range j.Samples {
			for w, v := range j.Samples[i].words() {
				binary.LittleEndian.PutUint64(out[off+8*w:], v)
			}
			off += tlSampleSize
		}
		for _, m := range j.Marks {
			out[off] = byte(m.Kind)
			binary.LittleEndian.PutUint64(out[off+1:], m.VClock)
			binary.LittleEndian.PutUint64(out[off+9:], m.Value)
			off += tlMarkSize
		}
	}
	return out
}

// words flattens the fixed vector in declaration order.
func (s *Sample) words() [sampleWords]uint64 {
	return [sampleWords]uint64{
		s.VClock, s.Execs, s.CoverBlocks, s.CorpusSize, s.Found,
		s.Sanitize, s.Snapshot, s.ChecksElided, s.ChecksRun,
		s.KCSANEvals, s.KCSANArmed,
	}
}

func sampleFromWords(w [sampleWords]uint64) Sample {
	return Sample{
		VClock: w[0], Execs: w[1], CoverBlocks: w[2], CorpusSize: w[3], Found: w[4],
		Sanitize: w[5], Snapshot: w[6], ChecksElided: w[7], ChecksRun: w[8],
		KCSANEvals: w[9], KCSANArmed: w[10],
	}
}

// Decode parses an EMTL artefact. It never panics on malformed input.
func Decode(b []byte) ([]JobTimeline, error) {
	if len(b) < tlHeaderSize {
		return nil, fmt.Errorf("timeline: artefact too short (%d bytes)", len(b))
	}
	if string(b[:4]) != timelineMagic {
		return nil, fmt.Errorf("timeline: bad magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != timelineVersion {
		return nil, fmt.Errorf("timeline: unsupported version %d", v)
	}
	if r := binary.LittleEndian.Uint16(b[6:]); r != 0 {
		return nil, fmt.Errorf("timeline: reserved header bytes set (%#x)", r)
	}
	nJobs := binary.LittleEndian.Uint32(b[8:])
	off := tlHeaderSize
	if int64(nJobs) > int64(len(b)-tlHeaderSize)/tlJobHeaderSize {
		return nil, fmt.Errorf("timeline: %d jobs cannot fit in %d bytes", nJobs, len(b))
	}
	jobs := make([]JobTimeline, 0, nJobs)
	for ji := uint32(0); ji < nJobs; ji++ {
		if len(b)-off < tlJobHeaderSize {
			return nil, fmt.Errorf("timeline: job %d header truncated", ji)
		}
		j := JobTimeline{
			ID:       int(binary.LittleEndian.Uint32(b[off:])),
			Interval: binary.LittleEndian.Uint64(b[off+4:]),
		}
		nSamples := int(binary.LittleEndian.Uint32(b[off+12:]))
		nMarks := int(binary.LittleEndian.Uint32(b[off+16:]))
		off += tlJobHeaderSize
		need := tlSampleSize*nSamples + tlMarkSize*nMarks
		if len(b)-off < need {
			return nil, fmt.Errorf("timeline: job %d body truncated (%d of %d bytes)", ji, len(b)-off, need)
		}
		if nSamples > 0 {
			j.Samples = make([]Sample, nSamples)
			for i := range j.Samples {
				var w [sampleWords]uint64
				for k := range w {
					w[k] = binary.LittleEndian.Uint64(b[off+8*k:])
				}
				j.Samples[i] = sampleFromWords(w)
				off += tlSampleSize
			}
		}
		if nMarks > 0 {
			j.Marks = make([]Mark, nMarks)
			for i := range j.Marks {
				m := Mark{
					Kind:   MarkKind(b[off]),
					VClock: binary.LittleEndian.Uint64(b[off+1:]),
					Value:  binary.LittleEndian.Uint64(b[off+9:]),
				}
				if !m.Kind.Valid() {
					return nil, fmt.Errorf("timeline: job %d mark %d has unknown kind %d", ji, i, m.Kind)
				}
				j.Marks[i] = m
				off += tlMarkSize
			}
		}
		jobs = append(jobs, j)
	}
	if off != len(b) {
		return nil, fmt.Errorf("timeline: %d trailing bytes after %d jobs", len(b)-off, nJobs)
	}
	return jobs, nil
}
