package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"

	"stencilabft/internal/num"
)

// The TCP transport's wire format: every message is one length-prefixed
// binary frame with a fixed little-endian header. The header is versioned —
// a peer built from a different wire revision is rejected at the first
// frame, not silently misparsed — and self-describing enough (from/to rank,
// direction, element width, barrier generation and round) that a receiver
// can route any frame from the header alone.
//
//	offset  size  field
//	0       2     magic "SB" (stencil binary)
//	2       1     wire version (wireVersion)
//	3       1     frame kind (hello | halo | token | ... | state)
//	4       2     from rank (uint16)
//	6       2     to rank (uint16)
//	8       1     direction (dist.Dir; the direction `from` sent toward)
//	9       1     element width in bytes (4 = float32, 8 = float64, 0 = none)
//	10      4     barrier generation (uint32; token frames)
//	14      2     barrier round (uint16; token frames)
//	16      4     sequence number (uint32; the frame's place in its edge's count, from 1; 0 off the edges)
//	20      4     payload length in bytes (uint32)
//	24      4     CRC-32C over header[0:24] + payload
//	28      —     payload
//
// Version 2 added the sequence number and the checksum. The CRC turns a
// corrupted frame (a flipped bit the TCP checksum missed, a chaos
// injection) into a detected, attributable fault at the receiving edge
// instead of silently desynchronizing the stream. Version 3 dropped the
// reconnect protocol (the hello acknowledgement and its resume point, the
// idle heartbeat): the sequence number is the edge's strict frame count,
// and a frame that is not the edge's next fails it — a strip lost above the
// wire (TCPTransport.Lose) surfaces on the frame that follows.
//
// Halo payloads are raw IEEE-754 element bits, little-endian, in the pack
// order of the exchange (row-major strips). Bootstrap payloads (register,
// book, nack) are JSON — they run once per process, so self-describing
// beats compact there.

const (
	wireMagic0  = 'S'
	wireMagic1  = 'B'
	wireVersion = 3

	wireHeaderSize = 28

	// maxFramePayload caps a frame's declared payload so a corrupt or
	// malicious header cannot make the receiver allocate unbounded memory.
	maxFramePayload = 1 << 30
	// payloadChunk is the most readFrame allocates before any payload byte
	// has arrived; the buffer then doubles as reads complete. Every halo
	// strip and most checkpoints fit in one chunk.
	payloadChunk = 1 << 20
)

// crcTable is the Castagnoli polynomial table every frame checksum uses —
// the same CRC-32C the checkpoint file format trusts.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame kinds.
const (
	frameHello    = byte(iota + 1) // opens a directed halo edge: {from, to, dir}
	frameHalo                      // one boundary strip, payload = elements
	frameToken                     // barrier token: {gen, round}
	frameRegister                  // rendezvous: JSON {ranks, addr}
	frameBook                      // rendezvous: JSON {addrs: rank → listen addr}
	frameNack                      // rendezvous rejection: JSON {error}
	frameCkpt                      // buddy checkpoint: gen = iteration, payload = packed rank state
	frameDead                      // recovery control: JSON fault report / death notice
	frameClaim                     // recovery control: JSON plan / a replacement's claim
	frameState                     // recovery control: gen = iteration, payload = dead rank's packed state
)

// The recovery control plane (internal/resilience) speaks the same wire
// format as the halo edges, so a coordinator endpoint rejects foreign
// traffic with the same magic/version checks. These exports are that
// package's surface; the halo data path keeps using the unexported kinds.
const (
	FrameDead  = frameDead
	FrameClaim = frameClaim
	FrameState = frameState
)

// WireFrame is the decoded form of one control-plane message: the kind,
// the iteration stamp carried in the header's generation field, and the
// raw payload (JSON for FrameDead/FrameClaim, packed elements for
// FrameState).
type WireFrame struct {
	Kind    byte
	Gen     uint32
	Elem    byte
	Payload []byte
}

// ReadWireFrame reads and validates one control-plane frame from r.
func ReadWireFrame(r io.Reader) (WireFrame, error) {
	f, err := readFrame(r)
	if err != nil {
		return WireFrame{}, err
	}
	return WireFrame{Kind: f.kind, Gen: f.gen, Elem: f.elem, Payload: f.payload}, nil
}

// WriteWireFrame re-emits a decoded control-plane frame verbatim — how the
// recovery coordinator relays a state frame from the guard to the replacement
// without knowing the element type.
func WriteWireFrame(w io.Writer, f WireFrame) error {
	_, err := w.Write(appendFrame(nil, frame{kind: f.Kind, elem: f.Elem, gen: f.Gen, payload: f.Payload}))
	return err
}

// WriteJSONFrame marshals v and writes it to w as a frame of the given
// kind — the control plane's request/response unit.
func WriteJSONFrame(w io.Writer, kind byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(appendFrame(nil, frame{kind: kind, payload: payload}))
	return err
}

// WriteStateFrame writes a packed rank state stamped with its checkpoint
// iteration — how a buddy streams a dead rank's snapshot through the
// coordinator to its new host.
func WriteStateFrame[T num.Float](w io.Writer, gen int, data []T) error {
	es := elemSize[T]()
	buf := make([]byte, wireHeaderSize, wireHeaderSize+len(data)*int(es))
	putHeader(buf, frame{kind: frameState, elem: es, gen: uint32(gen)})
	buf = AppendElems(buf, data)
	sealFrame(buf, 0)
	_, err := w.Write(buf)
	return err
}

// DecodeStateFrame parses a FrameState payload back into elements and the
// checkpoint iteration it was taken at.
func DecodeStateFrame[T num.Float](f WireFrame) ([]T, int, error) {
	if f.Kind != frameState {
		return nil, 0, fmt.Errorf("dist: frame kind %d is not a state frame", f.Kind)
	}
	data, err := DecodeElems[T](f.Elem, f.Payload)
	if err != nil {
		return nil, 0, err
	}
	return data, int(f.Gen), nil
}

// frame is the decoded form of one wire message.
type frame struct {
	kind     byte
	from, to uint16
	dir      byte
	elem     byte
	gen      uint32
	round    uint16
	seq      uint32
	payload  []byte
}

// putHeader writes f's header fields into h (len wireHeaderSize). The
// payload length and CRC are left zero; sealFrame fills them once the
// payload is in place.
func putHeader(h []byte, f frame) {
	h[0], h[1] = wireMagic0, wireMagic1
	h[2] = wireVersion
	h[3] = f.kind
	binary.LittleEndian.PutUint16(h[4:6], f.from)
	binary.LittleEndian.PutUint16(h[6:8], f.to)
	h[8] = f.dir
	h[9] = f.elem
	binary.LittleEndian.PutUint32(h[10:14], f.gen)
	binary.LittleEndian.PutUint16(h[14:16], f.round)
	binary.LittleEndian.PutUint32(h[16:20], f.seq)
	binary.LittleEndian.PutUint32(h[20:24], 0)
	binary.LittleEndian.PutUint32(h[24:28], 0)
}

// sealFrame finalises a serialised frame in place: stamps the sequence
// number, backfills the payload length, and computes the CRC-32C over the
// header (CRC field excluded) and payload. It is the last step before a
// frame may hit the wire — any later mutation invalidates the checksum,
// which is the point: the receiver's CRC check covers everything.
func sealFrame(buf []byte, seq uint32) {
	binary.LittleEndian.PutUint32(buf[16:20], seq)
	binary.LittleEndian.PutUint32(buf[20:24], uint32(len(buf)-wireHeaderSize))
	crc := crc32.Update(0, crcTable, buf[:24])
	crc = crc32.Update(crc, crcTable, buf[wireHeaderSize:])
	binary.LittleEndian.PutUint32(buf[24:28], crc)
}

// appendFrame serialises and seals f onto dst and returns the extended
// slice.
func appendFrame(dst []byte, f frame) []byte {
	start := len(dst)
	var h [wireHeaderSize]byte
	putHeader(h[:], f)
	dst = append(dst, h[:]...)
	dst = append(dst, f.payload...)
	sealFrame(dst[start:], f.seq)
	return dst
}

// wireCorruptError marks a frame rejected by the CRC check — the receiver
// classifies the edge's fault as corruption rather than as a lost
// connection.
type wireCorruptError struct{ msg string }

func (e *wireCorruptError) Error() string { return e.msg }

// isCorruptFrame reports whether err is a CRC rejection from readFrame.
func isCorruptFrame(err error) bool {
	var ce *wireCorruptError
	return errors.As(err, &ce)
}

// readFrame reads and validates one frame from r, into fresh memory — the
// one-shot form the handshakes, the rendezvous and the control plane use.
func readFrame(r io.Reader) (frame, error) {
	return (&frameReader{r: r}).next()
}

// frameReader reads a stream of frames through buffers it owns, so a
// connection's steady halo-and-token traffic allocates nothing: the frame
// next returns — its payload included — is valid until the next call.
type frameReader struct {
	r       io.Reader
	hdr     [wireHeaderSize]byte
	payload []byte
}

// next reads and validates one frame. It checks the magic and the wire
// version before trusting any other header field, then verifies the
// CRC-32C over header and payload, so a version-mismatched peer or a
// corrupted frame is rejected with an actionable error instead of being
// misparsed.
func (fr *frameReader) next() (frame, error) {
	h := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, h); err != nil {
		return frame{}, err
	}
	if h[0] != wireMagic0 || h[1] != wireMagic1 {
		return frame{}, fmt.Errorf("dist: bad wire magic %#02x%02x (not a stencilabft transport peer?)", h[0], h[1])
	}
	if h[2] != wireVersion {
		return frame{}, fmt.Errorf("dist: wire version mismatch: peer speaks version %d, this binary speaks version %d", h[2], wireVersion)
	}
	n := binary.LittleEndian.Uint32(h[20:24])
	if n > maxFramePayload {
		return frame{}, fmt.Errorf("dist: frame payload length %d exceeds the %d-byte cap (corrupt header?)", n, maxFramePayload)
	}
	f := frame{
		kind:    h[3],
		from:    binary.LittleEndian.Uint16(h[4:6]),
		to:      binary.LittleEndian.Uint16(h[6:8]),
		dir:     h[8],
		elem:    h[9],
		gen:     binary.LittleEndian.Uint32(h[10:14]),
		round:   binary.LittleEndian.Uint16(h[14:16]),
		seq:     binary.LittleEndian.Uint32(h[16:20]),
		payload: fr.payload[:0],
	}
	// Grow for what has arrived, not for what the header announces.
	for got := 0; got < int(n); got = len(f.payload) {
		k := min(int(n)-got, max(got, payloadChunk))
		f.payload = slices.Grow(f.payload, k)[:got+k]
		if _, err := io.ReadFull(fr.r, f.payload[got:]); err != nil {
			return frame{}, fmt.Errorf("dist: truncated frame payload (want %d bytes): %w", n, err)
		}
	}
	if cap(f.payload) <= payloadChunk {
		fr.payload = f.payload // strips recycle; a tile-sized checkpoint is left to the GC
	}
	crc := crc32.Update(0, crcTable, h[:24])
	crc = crc32.Update(crc, crcTable, f.payload)
	if want := binary.LittleEndian.Uint32(h[24:28]); crc != want {
		return frame{}, &wireCorruptError{msg: fmt.Sprintf(
			"dist: frame CRC mismatch (kind %d seq %d, got %#08x want %#08x): corrupted on the wire", f.kind, f.seq, crc, want)}
	}
	return f, nil
}

// elemSize returns the wire element width of T in bytes (4 or 8). Sizeof,
// unlike a type assertion, stays correct for named float types (~float32).
func elemSize[T num.Float]() byte {
	var v T
	return byte(unsafe.Sizeof(v))
}

// AppendElems serialises data as little-endian IEEE-754 bits onto dst. The
// conversions through float32/float64 are exact: T's underlying type has
// the same width. Exported because the stencilserve worker protocol moves
// result grids through the same codec (internal/serve).
func AppendElems[T num.Float](dst []byte, data []T) []byte {
	if elemSize[T]() == 4 {
		for _, v := range data {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
		}
		return dst
	}
	for _, v := range data {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(v)))
	}
	return dst
}

// DecodeElems parses a payload of raw element bits (a halo strip, a served
// result grid) back into freshly allocated elements, validating the
// declared element width against T and the payload length against it.
func DecodeElems[T num.Float](elem byte, payload []byte) ([]T, error) {
	return decodeElemsInto[T](nil, elem, payload)
}

// decodeElemsInto is DecodeElems decoding into buf when its capacity
// suffices (allocating otherwise) — how a connection reader recycles the
// strips it hands its rank.
func decodeElemsInto[T num.Float](buf []T, elem byte, payload []byte) ([]T, error) {
	want := elemSize[T]()
	if elem != want {
		return nil, fmt.Errorf("dist: halo element width %d bytes, this rank runs %d-byte elements (mixed float32/float64 cluster?)", elem, want)
	}
	if len(payload)%int(want) != 0 {
		return nil, fmt.Errorf("dist: halo payload of %d bytes is not a whole number of %d-byte elements", len(payload), want)
	}
	n := len(payload) / int(want)
	if cap(buf) < n {
		buf = make([]T, n)
	}
	out := buf[:n]
	if want == 4 {
		for i := range out {
			out[i] = T(math.Float32frombits(binary.LittleEndian.Uint32(payload[i*4:])))
		}
		return out, nil
	}
	for i := range out {
		out[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:])))
	}
	return out, nil
}
