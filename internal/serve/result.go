package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"

	abft "stencilabft"
	"stencilabft/internal/dist"
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
	var err error
	if g.Elem == "float64" {
		dst, err = appendCells[float64](dst, 8, g.Raw)
	} else {
		dst, err = appendCells[float32](dst, 4, g.Raw)
	}
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
func appendCells[T abft.Float](dst []byte, width byte, raw []byte) ([]byte, error) {
	cells, err := dist.DecodeElems[T](width, raw)
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		f := float64(c)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, errNonFinite
		}
		if i > 0 {
			dst = append(dst, ',')
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
