package haggle

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
)

// ReadAuto parses a contact trace in whichever supported encoding it
// finds:
//
//   - gzip-compressed input is transparently decompressed;
//   - the native "# haggle-trace v1" format is parsed by Read;
//   - headerless whitespace-separated dumps (the CRAWDAD convention:
//     "<i> <j> <start> <end>" with an optional distance column) are
//     parsed with the node count and horizon inferred from the data.
func ReadAuto(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("haggle: gzip: %w", err)
		}
		defer gz.Close()
		return ReadAuto(bufio.NewReader(gz))
	}
	head, err := br.Peek(len(headerPrefix))
	if err == nil && string(head) == headerPrefix {
		return Read(br)
	}
	return readHeaderless(br)
}

const headerPrefix = "# haggle-trace"

// readHeaderless parses "<i> <j> <start> <end> [dist]" lines, inferring
// the node count (max id + 1) and horizon (max end).
func readHeaderless(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	t := &Trace{}
	lineNo := 0
	maxID := -1
	var maxEnd float64
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var c Contact
		n, err := fmt.Sscanf(line, "%d %d %g %g %g", &c.I, &c.J, &c.Start, &c.End, &c.Dist)
		if err != nil && n < 4 {
			return nil, fmt.Errorf("haggle: line %d: %q: %v", lineNo, line, err)
		}
		if n == 4 {
			c.Dist = 10
		}
		if c.I == c.J || c.I < 0 || c.J < 0 {
			return nil, fmt.Errorf("haggle: line %d: bad pair (%d,%d)", lineNo, c.I, c.J)
		}
		if err := checkContact(lineNo, c); err != nil {
			return nil, err
		}
		if c.I > c.J {
			c.I, c.J = c.J, c.I
		}
		maxID = maxInt(maxID, c.J)
		maxEnd = math.Max(maxEnd, c.End)
		t.Contacts = append(t.Contacts, c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(t.Contacts) == 0 {
		return nil, fmt.Errorf("haggle: no contacts in headerless trace")
	}
	t.N = maxID + 1
	t.Horizon = maxEnd
	return t, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
