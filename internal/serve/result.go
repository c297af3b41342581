package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"stencilabft/internal/stats"
)

// resultHeader is the first line of the binary result form: everything in
// the JSON form except the cells, which follow it raw.
type resultHeader struct {
	ID     string      `json:"id"`
	Cached bool        `json:"cached"`
	Nx     int         `json:"nx"`
	Ny     int         `json:"ny"`
	Nz     int         `json:"nz,omitempty"`
	Elem   string      `json:"elem"`
	Stats  stats.Stats `json:"stats"`
}

// writeResult answers a done job in one of two forms. The default is JSON,
// the grid's one text encoding, written by appendResultJSON. A client
// sending Accept: application/octet-stream gets a JSON header line followed
// by the stored cells as they are — little-endian, at the job's element
// width — which is also the only form a grid holding NaN or ±Inf has.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, j *Job) {
	grid, st, ok := j.Result()
	if !ok {
		s.writeErrorStatus(w, http.StatusInternalServerError, "serve: done job lost its result")
		return
	}
	cached := j.Status().Cached
	if strings.Contains(r.Header.Get("Accept"), "application/octet-stream") {
		head, err := json.Marshal(resultHeader{ID: j.ID, Cached: cached,
			Nx: grid.Nx, Ny: grid.Ny, Nz: grid.Nz, Elem: grid.Elem, Stats: st})
		if err != nil {
			s.writeErrorStatus(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeBody(w, "application/octet-stream", append(head, '\n'), grid.Raw)
		return
	}
	bp, _ := resultBodies.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	defer resultBodies.Put(bp)
	// Append grows the rare body with longer cells.
	body := slices.Grow((*bp)[:0], cellText*len(grid.Raw)/elemSize(grid.Elem)+1024)
	body, err := appendResultJSON(body, j.ID, cached, grid, st)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errNonFinite) {
			status = http.StatusNotAcceptable
		}
		s.writeErrorStatus(w, status, err.Error())
		return
	}
	writeBody(w, "application/json", body)
	*bp = body[:0]
}

// resultBodies holds JSON result bodies between GETs (*[]byte): a body is
// cellText bytes a cell, ≈ 1.3 MB for a 256² grid, which a fresh buffer
// would zero and drop on every request. A body goes back once writeBody has
// written it, and the response writer keeps none of it.
var resultBodies sync.Pool

// writeBody sends a fully built 200 response with its length declared.
func writeBody(w http.ResponseWriter, contentType string, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	for _, p := range parts {
		w.Write(p)
	}
}

// cellText is the bytes of JSON text a result cell takes, comma included,
// that the result buffer is sized for: ≈ 19 on the service's float32 grids.
const cellText = 20

// errNonFinite marks a result JSON cannot carry.
var errNonFinite = errors.New("serve: the result holds NaN or ±Inf, which JSON cannot carry; " +
	"GET it with Accept: application/octet-stream for the raw cells")

// appendResultJSON appends the GET /result body
//
//	{"id":…,"cached":…,"grid":{"nx":…,"ny":…[,"nz":…],"data":[…]},"stats":{…}}\n
//
// byte for byte as encoding/json would emit it for the same values held as
// []float64 — the one place a grid becomes text. It decodes the stored bits
// and formats each cell straight into dst; nothing reflects over the grid.
func appendResultJSON(dst []byte, id string, cached bool, g *GridPayload, st stats.Stats) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendQuote(dst, id) // ids are "j<seq>-<hex>": nothing to escape
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, cached)
	dst = append(dst, `,"grid":{"nx":`...)
	dst = strconv.AppendInt(dst, int64(g.Nx), 10)
	dst = append(dst, `,"ny":`...)
	dst = strconv.AppendInt(dst, int64(g.Ny), 10)
	if g.Nz != 0 {
		dst = append(dst, `,"nz":`...)
		dst = strconv.AppendInt(dst, int64(g.Nz), 10)
	}
	dst = append(dst, `,"data":[`...)
	dst, err := appendCells(dst, elemSize(g.Elem), g.Raw)
	if err != nil {
		return nil, err
	}
	dst = st.AppendJSON(append(dst, `]},"stats":`...))
	return append(dst, '}', '\n'), nil
}

// appendCells appends raw's cells, comma-separated, each widened to float64
// and formatted as encoding/json formats a float64: shortest round-trip
// digits, %e outside [1e-6, 1e21) with a two-digit exponent trimmed to one.
// A float32 cell goes through appendCell32 first; what it declines, and
// every float64 cell, takes the one strconv call.
func appendCells(dst []byte, width int, raw []byte) ([]byte, error) {
	if width == 0 || len(raw)%width != 0 {
		return nil, fmt.Errorf("serve: a %d-byte grid is not a whole number of %d-byte cells", len(raw), width)
	}
	// appendCell32 stores into the spare capacity: reserve it once here, so
	// that its own grow stays cold.
	dst = slices.Grow(dst, cellText*len(raw)/width+32)
	for i := 0; i < len(raw); i += width {
		if i > 0 {
			dst = append(dst, ',')
		}
		var f float64
		if width == 4 {
			b := binary.LittleEndian.Uint32(raw[i:])
			var ok bool
			if dst, ok = appendCell32(dst, b); ok {
				continue
			}
			f = float64(math.Float32frombits(b))
		} else {
			f = math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, errNonFinite
		}
		format := byte('f')
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		dst = strconv.AppendFloat(dst, f, format, -1, 64)
		if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1] // e-09 → e-9
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendCell32 appends the float32 with bits b, widened to float64, byte for
// byte as strconv.AppendFloat(v, 'f', -1, 64) does, for a normal float32 v
// with 2⁻⁸ ≤ |v| < 2⁵³; for any other v it returns dst unchanged and false.
// It writes straight into dst's spare capacity, eight digits a store, and
// grows dst first when fewer than 32 bytes are spare.
//
// Write |v| = m·2⁻ᵏ with 2²³ ≤ m < 2²⁴. Integers (k ≤ 0, or m's low k bits
// zero) are exact: the integer part m >> k, no fraction. Otherwise v's
// float64 mantissa m·2²⁹ is even, so its round-trip interval is the
// closed [v − 2⁻ᵏ⁻³⁰, v + 2⁻ᵏ⁻³⁰]. (Its lower half-width halves when
// m = 2²³, which changes nothing here: such a v is 2⁻ⁱ with i ≤ 8, whose
// exact expansion of at most 8 digits is the shortest form.) A non-integer
// v is at least 2⁻ᵏ from every integer, so the interval holds none: the
// integer part of every number in it is m >> k, and the digits after the
// point come from r = m mod 2ᵏ alone. Scaled by 10ʲ the interval is
// centred on r·5ʲ/2ˢ (plus an integer), s = k − j, with half-width
// 5ʲ/2ˢ⁺³⁰; it holds an integer iff the distance g from r·5ʲ to the
// nearest multiple of 2ˢ has g·2³⁰ ≤ 5ʲ — the low s ≤ 31 bits of one
// wrapping multiply. If it holds one at j it holds one at j + 1, so the
// shortest form has the least such j, which the walk finds by stepping
// down from a j known to hold one: the first j with 10ʲ > 2ᵏ⁺³⁰ (the
// interval is then wider than 2) or the exact expansion's k − tz(m) digits,
// whichever is less. The fraction's digits are r·5ʲ/2ˢ rounded half to
// even — what strconv's Ryu search picks; the interval being centred on
// v, an integer nearest v·10ʲ lies in it, so rounding never carries into
// the integer part and never leaves a trailing zero.
func appendCell32(dst []byte, b uint32) ([]byte, bool) {
	exp := int(b>>23) & 0xff
	k := 150 - exp
	if exp == 0 || k > 31 || k < -29 { // zero, subnormal, |v| < 2⁻⁸, |v| ≥ 2⁵³, NaN, ±Inf
		return dst, false
	}
	dst = slices.Grow(dst, 32)
	m := uint64(b&(1<<23-1) | 1<<23)
	var ip, frac uint64 // v = ip + frac·10⁻ʲ
	j := 0
	if k <= 0 {
		ip = m << (-k & 63)
	} else {
		ip = m >> (k & 63)
		if tz := bits.TrailingZeros64(m); tz < k {
			r := m & (1<<(k&63) - 1)
			j = min((k+30)*78913>>18+1, k-tz) // ⌊(k+30)·log₁₀2⌋ + 1 or k − tz(m)
			for {
				t := j - 1 // the interval at j = 0 holds no integer: t ≥ 0
				s := uint(k-t) & 63
				f := r * pow5[t] & (1<<s - 1)
				if min(f, 1<<s-f)<<30 > pow5[t] {
					break
				}
				j = t
			}
			s := uint(k-j) & 63 // frac < 2⁵⁸, so at s ≤ 6 the high word is 0
			hi, lo := bits.Mul64(r, pow5[j])
			frac = hi<<(64-s&63) | lo>>s
			// Half to even: up iff 2·rem + (frac&1) > 2ˢ, never at s = 0.
			frac += (1<<s - (lo&(1<<s-1))<<1 - frac&1) >> 63
		}
	}

	// The sign is written always and kept only when set; digits go out in
	// 8-byte stores whose tails the next store overwrites. The cell is 28
	// bytes at most (sign, 7 integer digits, point, 19 fraction digits),
	// and no store reaches past it by more than 7.
	out := dst[len(dst) : len(dst)+32]
	out[0] = '-'
	i := int(b >> 31)
	if ip >= 1e8 { // then k ≤ 0 and ip < 2⁵³ < 10¹⁶
		i = putDigits(out, i, ip/1e8)
		ip %= 1e8
		binary.LittleEndian.PutUint64(out[i:], ascii8(ip))
		i += 8
	} else {
		i = putDigits(out, i, ip)
	}
	if j > 0 { // frac < 10ʲ, j ≤ 19, as exactly j digits
		out[i] = '.'
		i++
		switch {
		case j <= 8:
			binary.LittleEndian.PutUint64(out[i:], ascii8(frac)>>(8*(8-j)&63))
		case j <= 16:
			hi := frac / 1e8
			binary.LittleEndian.PutUint64(out[i:], ascii8(hi)>>(8*(16-j)&63))
			binary.LittleEndian.PutUint64(out[i+j-8:], ascii8(frac-hi*1e8))
		default:
			top := frac / 1e16
			frac -= top * 1e16
			mid := frac / 1e8
			binary.LittleEndian.PutUint64(out[i:], ascii8(top)>>(8*(24-j)&63))
			binary.LittleEndian.PutUint64(out[i+j-16:], ascii8(mid))
			binary.LittleEndian.PutUint64(out[i+j-8:], ascii8(frac-mid*1e8))
		}
		i += j
	}
	return dst[:len(dst)+i], true
}

// putDigits stores x < 10⁸ at out[i:] without leading zeros ("0" for 0) and
// returns the index after its last digit; up to 8 bytes past it are written.
func putDigits(out []byte, i int, x uint64) int {
	d := digits8(x)
	z := bits.TrailingZeros64(d|1<<56) >> 3 // leading zero digits, at most 7
	binary.LittleEndian.PutUint64(out[i:], (d|ascii)>>(8*z&63))
	return i + 8 - z
}

// ascii8 is x < 10⁸ as eight ASCII digits, the first in the low byte: one
// little-endian store writes them in reading order.
func ascii8(x uint64) uint64 { return digits8(x) | ascii }

const ascii = 0x3030303030303030

// digits8 is x < 10⁸ as eight digit values 0–9, the first in the low byte.
// Each step splits every lane in two by a multiply-shift quotient that is
// exact in its range: 10⁴ into two 32-bit lanes, 10² into four 16-bit
// lanes, 10 into eight bytes. No lane's product reaches the next lane.
func digits8(x uint64) uint64 {
	hi := x * 109951163 >> 40 // x / 10⁴
	v := hi | (x-hi*1e4)<<32
	q := v * 10486 >> 20 & 0x0000007f0000007f // each lane / 100
	v = (v-100*q)<<16 | q
	q = v * 103 >> 10 & 0x000f000f000f000f // each lane / 10
	return (v-10*q)<<8 | q
}

// pow5[j] is 5ʲ for every j appendCell32 uses: k ≤ 31 starts it at most at
// ⌊61·log₁₀2⌋ + 1 = 19.
var pow5 = [20]uint64{1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125,
	9765625, 48828125, 244140625, 1220703125, 6103515625, 30517578125,
	152587890625, 762939453125, 3814697265625, 19073486328125}
