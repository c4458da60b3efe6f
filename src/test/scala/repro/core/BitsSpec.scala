package repro.core

import org.scalatest.funsuite.AnyFunSuite

class BitsSpec extends AnyFunSuite {

  private def bits(nWords: Int, set: Int*): Array[Long] = {
    val m = new Array[Long](nWords)
    set.foreach(Bits.set(m, _))
    m
  }

  test("iterator yields set bits in ascending order across word boundaries") {
    assert(Bits.iterator(bits(2, 127, 0, 64, 63)).toList == List(0, 63, 64, 127))
    assert(Bits.iterator(bits(3, 128)).toList == List(128))
    assert(Bits.iterator(bits(3)).isEmpty)
    assert(Bits.iterator(Array.empty[Long]).isEmpty)
    assert(Bits.iterator(Array(-1L)).toList == (0 until 64).toList)
  }

  test("iterator fails past the last set bit") {
    val it = Bits.iterator(bits(1, 5))
    assert(it.next() == 5)
    assertThrows[NoSuchElementException](it.next())
  }

  test("weight sums counts over the set bits") {
    val counts = Array.tabulate(128)(i => 1L << (i % 40))
    assert(Bits.weight(bits(2, 0, 63, 64, 127), counts) ==
      counts(0) + counts(63) + counts(64) + counts(127))
    assert(Bits.weight(Array.empty[Long], counts) == 0L)
    assert(Bits.weight(Array(-1L), Array.fill(64)(3L)) == 192L)
  }

  test("cardinality counts set bits") {
    assert(Bits.cardinality(bits(2, 0, 63, 64, 127)) == 4)
    assert(Bits.cardinality(Array.empty[Long]) == 0)
    assert(Bits.cardinality(Array(-1L, 0L)) == 64)
  }

  test("and, or and andNot combine word by word") {
    val a = bits(2, 0, 63, 64, 127)
    val b = bits(2, 63, 64, 100)
    assert(Bits.iterator(Bits.and(a, b)).toList == List(63, 64))
    val o = a.clone(); Bits.or(o, b)
    assert(Bits.iterator(o).toList == List(0, 63, 64, 100, 127))
    val d = a.clone(); Bits.andNot(d, b)
    assert(Bits.iterator(d).toList == List(0, 127))
    val full = Array(-1L); Bits.andNot(full, bits(1, 0, 63))
    assert(Bits.cardinality(full) == 62 && !Bits.contains(full, 0) && !Bits.contains(full, 63))
    assert(Bits.and(Array.empty[Long], Array.empty[Long]).isEmpty)
  }
}
