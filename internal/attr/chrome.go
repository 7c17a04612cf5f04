package attr

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Trace tracks ("threads" in the Chrome trace model): one per phase, one per
// hardware thread's requests, one per NVM bank.
const (
	trackRequestBase int32 = 10
	trackBankBase    int32 = 100
)

func phaseTrack(p Phase) int32      { return 1 + int32(p) }
func requestTrack(thread int) int32 { return trackRequestBase + int32(thread) }
func bankTrack(bank int) int32      { return trackBankBase + int32(bank) }

// trackName returns the display name of a track.
func trackName(id int32) string {
	switch {
	case id >= trackBankBase:
		return fmt.Sprintf("bank %d", id-trackBankBase)
	case id >= trackRequestBase:
		return fmt.Sprintf("thread %d requests", id-trackRequestBase)
	default:
		return Phase(id - 1).String()
	}
}

// WriteChromeTrace writes the captured spans in the Chrome trace-event JSON
// Object Format, loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
// Timestamps are simulated time: the format's microsecond "ts" field carries
// simulated microseconds. Each span is an "X" (complete) event named after
// its phase, or its request kind on a thread's request track; one named
// thread per track labels the rows, and otherData.droppedEvents counts the
// spans the cap discarded. It fails when span capture is off.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil || r.maxSpans == 0 {
		return errors.New("attr: span capture is off")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"generator\":\"dewrite-sim\",\"clock\":\"simulated\",\"droppedEvents\":%d},\"traceEvents\":[\n", r.dropped)
	wroteAny := false
	emit := func(line string) {
		if wroteAny {
			bw.WriteString(",\n")
		}
		bw.WriteString(line)
		wroteAny = true
	}

	// Process and thread name metadata first, so viewers label the rows.
	emit(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"dewrite simulated memory system"}}`)
	tracks := make([]int32, 0, len(r.spans))
	for _, s := range r.spans {
		tracks = append(tracks, s.track)
	}
	slices.Sort(tracks)
	for _, id := range slices.Compact(tracks) {
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`, id, jsonString(trackName(id))))
		// sort_index keeps tracks in conventional order regardless of first
		// emission time.
		emit(fmt.Sprintf(`{"name":"thread_sort_index","ph":"M","pid":1,"tid":%d,"args":{"sort_index":%d}}`, id, id))
	}

	for _, s := range r.spans {
		cat := "phase"
		if s.track >= trackRequestBase && s.track < trackBankBase {
			cat = "request"
		}
		emit(fmt.Sprintf(`{"name":%s,"cat":%q,"ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d,"args":{"addr":"0x%x"}}`,
			jsonString(s.name), cat, usec(uint64(s.start)), usec(uint64(s.dur)), s.track, s.addr))
	}

	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// jsonString renders s as a JSON string literal. fmt's %q is not a JSON
// escaper: it emits \x.. escapes for control bytes and \U.. for some runes,
// both invalid JSON that Perfetto rejects wholesale.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string, but stay total
		return `""`
	}
	return string(b)
}

// usec renders a picosecond count as the trace format's fractional
// microseconds with full precision.
func usec(ps uint64) string {
	whole := ps / 1e6
	frac := ps % 1e6
	if frac == 0 {
		return strconv.FormatUint(whole, 10)
	}
	s := fmt.Sprintf("%d.%06d", whole, frac)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	return s
}
