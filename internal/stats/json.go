package stats

import (
	"encoding/json"
	"strconv"
)

// AppendJSON appends s as json.Marshal encodes it, byte for byte: the
// service writes a Stats into every SSE stats and done event and every
// result body, and appending it field by field costs a fraction of the
// reflective encoder. A field added to Stats must be added here too
// (TestAppendJSONMatchesMarshal fails until it is).
func (s Stats) AppendJSON(b []byte) []byte {
	b = appendInt(b, `{"Iterations":`, int64(s.Iterations))
	b = appendInt(b, `,"Verifications":`, int64(s.Verifications))
	b = appendInt(b, `,"Detections":`, int64(s.Detections))
	b = appendInt(b, `,"CorrectedPoints":`, int64(s.CorrectedPoints))
	b = appendInt(b, `,"ChecksumRepairs":`, int64(s.ChecksumRepairs))
	b = appendInt(b, `,"Rollbacks":`, int64(s.Rollbacks))
	b = appendInt(b, `,"RecomputedIters":`, int64(s.RecomputedIters))
	b = appendInt(b, `,"Recoveries":`, int64(s.Recoveries))
	b = appendInt(b, `,"ConeRecoveries":`, int64(s.ConeRecoveries))
	b = appendInt(b, `,"ConePointsSwept":`, int64(s.ConePointsSwept))
	b = appendInt(b, `,"FlaggedBlocks":`, int64(s.FlaggedBlocks))
	b = appendInt(b, `,"HaloExchanges":`, int64(s.HaloExchanges))
	b = appendInt(b, `,"HaloByDir":[`, int64(s.HaloByDir[0]))
	for _, n := range s.HaloByDir[1:] {
		b = appendInt(b, ",", int64(n))
	}
	b = append(b, `],"Topology":`...)
	b = AppendJSONString(b, s.Topology)

	c := s.Checkpoint
	b = appendInt(b, `,"Checkpoint":{"Saves":`, int64(c.Saves))
	b = appendInt(b, `,"Restores":`, int64(c.Restores))
	b = appendInt(b, `,"PointsCopied":`, c.PointsCopied)

	t := s.Timing
	b = appendInt(b, `},"Timing":{"PackNs":`, t.PackNs)
	b = appendInt(b, `,"SendNs":`, t.SendNs)
	b = appendInt(b, `,"RecvWaitNs":`, t.RecvWaitNs)
	b = appendInt(b, `,"UnpackNs":`, t.UnpackNs)
	b = appendInt(b, `,"SweepNs":`, t.SweepNs)
	b = appendInt(b, `,"VerifyNs":`, t.VerifyNs)
	b = appendInt(b, `,"RepairNs":`, t.RepairNs)
	b = appendInt(b, `,"BarrierNs":`, t.BarrierNs)
	b = appendInt(b, `,"CkptSaveNs":`, t.CkptSaveNs)
	b = appendInt(b, `,"CkptSendNs":`, t.CkptSendNs)
	b = appendInt(b, `,"RecoverWaitNs":`, t.RecoverWaitNs)
	b = appendInt(b, `,"RestoreNs":`, t.RestoreNs)
	b = appendInt(b, `,"InteriorSweepNs":`, t.InteriorSweepNs)
	b = appendInt(b, `,"BoundaryWaitNs":`, t.BoundaryWaitNs)
	b = appendInt(b, `,"BoundarySweepNs":`, t.BoundarySweepNs)
	b = appendInt(b, `,"RanksTimed":`, int64(t.RanksTimed))
	b = appendInt(b, `,"MaxBarrierNs":`, t.MaxBarrierNs)
	b = appendInt(b, `,"MaxBarrierOn":`, int64(t.MaxBarrierOn))
	b = appendInt(b, `,"MinBarrierNs":`, t.MinBarrierNs)
	b = appendInt(b, `,"StragglerRank":`, int64(t.StragglerRank))

	r := s.Transport
	b = appendInt(b, `},"Transport":{"FramesSent":`, r.FramesSent)
	b = appendInt(b, `,"FramesRecv":`, r.FramesRecv)
	b = appendInt(b, `,"BytesSent":`, r.BytesSent)
	b = appendInt(b, `,"BytesRecv":`, r.BytesRecv)
	b = appendInt(b, `,"DialRetries":`, r.DialRetries)
	b = appendInt(b, `,"PoisonEvents":`, r.PoisonEvents)
	b = appendInt(b, `,"Reconnects":`, r.Reconnects)
	b = appendInt(b, `,"Resends":`, r.Resends)
	b = appendInt(b, `,"CrcErrors":`, r.CrcErrors)
	b = appendInt(b, `,"DupFrames":`, r.DupFrames)
	return append(b, "}}"...)
}

// appendInt appends the literal text key, then v in decimal.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// AppendJSONString appends s quoted as json.Marshal quotes a string. A
// string of printable ASCII with nothing to escape — a topology name, an
// event type, a job state — is copied straight in; anything else (quotes,
// backslashes, control bytes, the HTML-escaped <, > and &, non-ASCII and
// invalid UTF-8) goes through encoding/json, so every escape rule is its.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
