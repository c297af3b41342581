package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
)

// The binary form is how Stats crosses the worker protocol's pipe: every
// field in declaration order, nested structs and arrays flattened in
// place, integers as zigzag varints, strings as a uvarint length and their
// bytes. The declaration order is the schema, so both ends must be one
// build — as a re-exec'd worker is. A run's counters are mostly zero, so a
// whole Stats is tens of bytes where its JSON is hundreds, and decoding it
// scans no text. AppendFields and UnmarshalFields are the same walk over
// any struct of such fields; the worker protocol's event header is one.

var errShort = errors.New("stats: binary form ends early")

// AppendBinary appends the binary form of s to b.
func (s Stats) AppendBinary(b []byte) ([]byte, error) {
	return AppendFields(b, &s)
}

// UnmarshalBinary decodes the binary form AppendBinary wrote. Input that
// ends early, runs past the last field or holds a malformed or
// out-of-range varint is an error, and leaves s partly written.
func (s *Stats) UnmarshalBinary(data []byte) error {
	return UnmarshalFields(data, s)
}

// AppendFields appends the binary form of the struct v points to: its
// fields in declaration order, as Stats.AppendBinary writes a Stats. Every
// field must be an int, int64, string, or an array or struct of them.
func AppendFields(b []byte, v any) ([]byte, error) {
	return appendValue(b, reflect.ValueOf(v).Elem())
}

// UnmarshalFields decodes what AppendFields wrote into the struct v points
// to, under UnmarshalBinary's rules: input that ends early, trails the last
// field or holds a malformed or out-of-range varint is an error.
func UnmarshalFields(data []byte, v any) error {
	rest, err := decodeValue(data, reflect.ValueOf(v).Elem())
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("stats: %d bytes trail the binary form", len(rest))
	}
	return nil
}

func appendValue(b []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		return binary.AppendVarint(b, v.Int()), nil
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...), nil
	case reflect.Array:
		for i := range v.Len() {
			var err error
			if b, err = appendValue(b, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return b, nil
	case reflect.Struct:
		for i := range v.NumField() {
			var err error
			if b, err = appendValue(b, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	return nil, fmt.Errorf("stats: the binary form has no encoding for %s", v.Type())
}

// decodeValue fills v from the front of data and returns what follows.
func decodeValue(data []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		x, n := binary.Varint(data)
		if n == 0 {
			return nil, errShort
		}
		if n < 0 || v.OverflowInt(x) {
			return nil, fmt.Errorf("stats: malformed varint for a %s", v.Type())
		}
		v.SetInt(x)
		return data[n:], nil
	case reflect.String:
		l, n := binary.Uvarint(data)
		if n == 0 {
			return nil, errShort
		}
		if n < 0 {
			return nil, errors.New("stats: malformed varint for a string length")
		}
		if data = data[n:]; l > uint64(len(data)) {
			return nil, fmt.Errorf("stats: string of %d bytes with %d left", l, len(data))
		}
		v.SetString(string(data[:l]))
		return data[l:], nil
	case reflect.Array:
		for i := range v.Len() {
			var err error
			if data, err = decodeValue(data, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return data, nil
	case reflect.Struct:
		for i := range v.NumField() {
			var err error
			if data, err = decodeValue(data, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	return nil, fmt.Errorf("stats: the binary form has no encoding for %s", v.Type())
}
