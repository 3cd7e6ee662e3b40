package main

import (
	"encoding/binary"
	"hash"
	"hash/crc32"
	"math"
	"reflect"
	"time"
)

// hashValue feeds a canonical byte form of v into h: floats as raw bits,
// times as unix nanoseconds (so a figure hashes the same whichever
// *time.Location its timestamps carry), maps as the XOR of their entries'
// hashes, so iteration order does not matter.
func hashValue(h hash.Hash, v reflect.Value) {
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Struct:
		if t, ok := v.Interface().(time.Time); ok {
			put(uint64(t.UnixNano()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				hashValue(h, v.Field(i))
			}
		}
	case reflect.Map:
		// Order-independent: XOR of per-entry CRCs.
		var acc uint32
		for it := v.MapRange(); it.Next(); {
			e := crc32.NewIEEE()
			hashValue(e, it.Key())
			hashValue(e, it.Value())
			acc ^= e.Sum32()
		}
		put(uint64(v.Len()))
		put(uint64(acc))
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			hashValue(h, v.Elem())
		}
	}
}

// figureCRC is the exact-repeat fingerprint of a set of figures: two
// commits that simulate and analyze identically print the same number.
func figureCRC(figs ...any) uint32 {
	h := crc32.NewIEEE()
	for _, f := range figs {
		hashValue(h, reflect.ValueOf(f))
	}
	return h.Sum32()
}

// figuresClose compares two figure values field by field: floats within tol
// (relative to the larger magnitude, absolute below 1), NaN equal to NaN,
// everything else exactly. tol 0 is the NaN-aware deep-equal.
func figuresClose(a, b any, tol float64) bool {
	return valuesClose(reflect.ValueOf(a), reflect.ValueOf(b), tol)
}

func valuesClose(a, b reflect.Value, tol float64) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && math.IsNaN(y)
		}
		if tol == 0 {
			return math.Float64bits(x) == math.Float64bits(y)
		}
		return math.Abs(x-y) <= tol*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !valuesClose(a.Index(i), b.Index(i), tol) {
				return false
			}
		}
		return true
	case reflect.Struct:
		if ta, ok := a.Interface().(time.Time); ok {
			return ta.Equal(b.Interface().(time.Time))
		}
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() && !valuesClose(a.Field(i), b.Field(i), tol) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() || !valuesClose(it.Value(), bv, tol) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return valuesClose(a.Elem(), b.Elem(), tol)
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}
