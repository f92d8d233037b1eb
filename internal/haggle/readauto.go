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
	contacts, err := readContacts(newScanner(r), 0, 0)
	if err != nil {
		return nil, err
	}
	if len(contacts) == 0 {
		return nil, fmt.Errorf("haggle: no contacts in headerless trace")
	}
	t := &Trace{Contacts: contacts}
	for _, c := range contacts {
		t.N = max(t.N, c.J+1)
		t.Horizon = math.Max(t.Horizon, c.End)
	}
	return t, nil
}
