package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"strings"

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
	// ≈ 19 bytes of text a cell; append grows the rare longer body.
	body := make([]byte, 0, 20*len(grid.Raw)/elemSize(grid.Elem)+1024)
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
}

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
	dst = append(dst, `]},"stats":`...)
	sj, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	dst = append(dst, sj...)
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
//
// Write |v| = m·2⁻ᵏ with 2²³ ≤ m < 2²⁴. As a float64 its mantissa m·2²⁹ is
// even, so its round-trip interval is the closed [v − 2⁻ᵏ⁻³⁰, v + 2⁻ᵏ⁻³⁰].
// (Its lower half-width halves when m = 2²³, which changes nothing here:
// such a v is an integer or 2⁻ⁱ with i ≤ 8, whose exact expansion of at
// most 8 digits is the shortest form.) Scaled by 10ʲ its bounds are
// (m·2³¹ ± 2)·5ʲ / 2ᵏ⁻ʲ⁺³¹: one 64×64→128 product and a shift each. At the
// first j with 10ʲ > 2ᵏ⁺³⁰ the scaled interval is wider than 1 and holds an
// integer; integer division by 10 then trims j to the least count of
// fractional digits at which it still does, which fixes the shortest form.
// Its digits are m·5ʲ / 2ᵏ⁻ʲ rounded half to even — what strconv's Ryu
// search picks; the interval being centred on v, an integer nearest v·10ʲ
// lies in it. Integers (k ≤ 0) are exact.
func appendCell32(dst []byte, b uint32) ([]byte, bool) {
	exp := int(b>>23) & 0xff
	k := 150 - exp
	if exp == 0 || k > 31 || k < -29 { // zero, subnormal, |v| < 2⁻⁸, |v| ≥ 2⁵³, NaN, ±Inf
		return dst, false
	}
	m := uint64(b&(1<<23-1) | 1<<23)
	var d uint64 // the digits: v = d·10⁻ʲ
	j := 0
	if k <= 0 {
		d = m << -k
	} else {
		j = (k+30)*78913>>18 + 1 // ⌊(k+30)·log₁₀2⌋ + 1
		p, s := pow5[j], uint(k-j+31)
		hi, lo := bits.Mul64(m<<31-2, p)
		l := hi<<(64-s) | lo>>s
		if lo&(1<<s-1) != 0 {
			l++
		}
		hi, lo = bits.Mul64(m<<31+2, p)
		u := hi<<(64-s) | lo>>s
		for j > 0 && (l+9)/10 <= u/10 {
			l, u, j = (l+9)/10, u/10, j-1
		}
		hi, lo = bits.Mul64(m, pow5[j])
		if r := uint(k - j); r == 0 {
			d = lo
		} else {
			d = hi<<(64-r) | lo>>r
			if rem, half := lo&(1<<r-1), uint64(1)<<(r-1); rem > half || rem == half && d&1 == 1 {
				d++
			}
		}
	}

	// d < 2⁵⁸ < 10¹⁸, as v·10ʲ < 2²⁴⁻ᵏ·10·2ᵏ⁺³⁰: its 18 digits, zero-padded,
	// end buf; two more zeros before them give 0.000… room for j ≤ 19, and
	// two slots before those take the decimal point's shift and the sign.
	var buf [22]byte
	buf[2], buf[3] = '0', '0'
	hi := d / 1e8
	lo := uint32(d - hi*1e8)
	top := uint32(hi / 1e8)
	mid := uint32(hi) - top*1e8
	buf[4], buf[5] = digitPairs[2*top], digitPairs[2*top+1]
	put4((*[4]byte)(buf[6:]), mid/1e4)
	put4((*[4]byte)(buf[10:]), mid%1e4)
	put4((*[4]byte)(buf[14:]), lo/1e4)
	put4((*[4]byte)(buf[18:]), lo%1e4)
	point := len(buf) - j
	i := 2
	for i < point-1 && buf[i] == '0' {
		i++
	}
	if j > 0 { // then |v| < 2²⁴: an integer part of at most 8 digits moves left
		for x := i; x < point; x++ {
			buf[x-1] = buf[x]
		}
		i--
		buf[point-1] = '.'
	}
	if b>>31 != 0 {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:]...), true
}

// put4 writes x < 10⁴ as four digits.
func put4(b *[4]byte, x uint32) {
	q := x / 100
	r := x - 100*q
	b[0], b[1], b[2], b[3] = digitPairs[2*q], digitPairs[2*q+1], digitPairs[2*r], digitPairs[2*r+1]
}

// pow5[j] is 5ʲ for every j appendCell32 uses: k ≤ 31 starts it at most at
// ⌊61·log₁₀2⌋ + 1 = 19.
var pow5 = [20]uint64{1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125,
	9765625, 48828125, 244140625, 1220703125, 6103515625, 30517578125,
	152587890625, 762939453125, 3814697265625, 19073486328125}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"
