package rdf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary snapshot format: loading a large KB from N-Triples re-parses and
// re-interns every term; the snapshot stores the term table and triple list
// directly, cutting cold-start time for repeated experiment runs
// (BenchmarkSnapshotLoad vs BenchmarkNTriplesLoad).
//
// Layout (all integers little-endian):
//
//	magic   "KSNAP1\n"
//	uint32  term count
//	per term:  uint8 kind, uvarint length, bytes value
//	uint32  triple count
//	per triple: uvarint S, uvarint P, uvarint O (term indices)
//
// Term indices in the file are positions in the term table, which on load
// map to freshly interned IDs — snapshots are portable across stores.

var snapshotMagic = []byte("KSNAP1\n")

// WriteSnapshot serialises the store.
func (s *Store) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(s.NumTerms())); err != nil {
		return err
	}
	for id := 0; id < s.NumTerms(); id++ {
		t := s.Term(ID(id))
		if err := bw.WriteByte(byte(t.Kind)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(t.Value))); err != nil {
			return err
		}
		if _, err := bw.WriteString(t.Value); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(s.ntriples)); err != nil {
		return err
	}
	var ferr error
	s.ForEachTriple(func(t Triple) {
		if ferr != nil {
			return
		}
		for _, id := range []ID{t.S, t.P, t.O} {
			if err := writeUvarint(uint64(id)); err != nil {
				ferr = err
				return
			}
		}
	})
	if ferr != nil {
		return ferr
	}
	return bw.Flush()
}

// ReadSnapshot loads a snapshot into the store, returning the number of
// triples added.
func (s *Store) ReadSnapshot(r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("rdf: snapshot header: %w", err)
	}
	if string(magic) != string(snapshotMagic) {
		return 0, fmt.Errorf("rdf: not a KB snapshot")
	}
	var termCount uint32
	if err := binary.Read(br, binary.LittleEndian, &termCount); err != nil {
		return 0, err
	}
	const maxTerms = 1 << 28
	if termCount > maxTerms {
		return 0, fmt.Errorf("rdf: snapshot declares %d terms", termCount)
	}
	ids := make([]ID, termCount)
	for i := range ids {
		kind, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		if TermKind(kind) != Resource && TermKind(kind) != Literal {
			return 0, fmt.Errorf("rdf: bad term kind %d", kind)
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, err
		}
		if n > 1<<24 {
			return 0, fmt.Errorf("rdf: term length %d too large", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return 0, err
		}
		ids[i] = s.Intern(Term{Kind: TermKind(kind), Value: string(buf)})
	}
	var tripleCount uint32
	if err := binary.Read(br, binary.LittleEndian, &tripleCount); err != nil {
		return 0, err
	}
	added := 0
	for i := uint32(0); i < tripleCount; i++ {
		var idx [3]uint64
		for j := range idx {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return added, err
			}
			if v >= uint64(termCount) {
				return added, fmt.Errorf("rdf: triple references term %d of %d", v, termCount)
			}
			idx[j] = v
		}
		if s.Add(ids[idx[0]], ids[idx[1]], ids[idx[2]]) {
			added++
		}
	}
	return added, nil
}
