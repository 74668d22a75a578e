"""Unit tests for page layouts and record codecs."""

import pytest

from repro.storage import (
    BytesPage,
    PageCorruptionError,
    PageFormatError,
    RecordCodec,
    RecordPage,
)
from repro.storage.pages import page_header_size


class TestRecordCodec:
    def test_record_size(self):
        codec = RecordCodec("qdd")
        assert codec.record_size == 8 + 8 + 8

    def test_capacity(self):
        codec = RecordCodec("qd")  # 16 bytes
        capacity = codec.capacity(4096)
        assert capacity == (4096 - page_header_size()) // 16

    def test_capacity_too_small_page(self):
        codec = RecordCodec("q" * 100)
        with pytest.raises(PageFormatError):
            codec.capacity(64)

    def test_pack_unpack_roundtrip(self):
        codec = RecordCodec("qid")
        records = [(1, 2, 3.5), (-7, 0, -0.25)]
        data = codec.pack(records)
        assert codec.unpack(data, 2) == records

    def test_unpack_from_a_byte_offset(self):
        codec = RecordCodec("qi")
        records = [(i, -i) for i in range(5)]
        data = b"hdr" + codec.pack(records)
        assert codec.unpack(data, 2, 3 + 2 * codec.record_size) == records[2:4]

    def test_float_precision_preserved(self):
        codec = RecordCodec("d")
        value = 0.1234567890123456789
        data = codec.pack([(value,)])
        (unpacked,) = codec.unpack(data, 1)[0]
        assert unpacked == value  # float64 exact roundtrip


class TestRecordPage:
    def test_append_and_serialize_roundtrip(self):
        codec = RecordCodec("qd")
        page = RecordPage(codec, 256)
        page.append((1, 0.5))
        page.append((2, 1.5))
        restored = RecordPage.from_bytes(page.to_bytes(), codec, 256)
        assert restored.records == [(1, 0.5), (2, 1.5)]

    def test_append_returns_slot(self):
        codec = RecordCodec("q")
        page = RecordPage(codec, 256)
        assert page.append((10,)) == 0
        assert page.append((20,)) == 1

    def test_full_page_rejects_append(self):
        codec = RecordCodec("q")
        page = RecordPage(codec, 64)
        for i in range(page.capacity):
            page.append((i,))
        assert page.is_full
        with pytest.raises(PageFormatError):
            page.append((99,))

    @pytest.mark.parametrize("held", [0, 2, 5])
    def test_extend_overflows_at_the_same_record_as_append(self, held):
        codec = RecordCodec("q")
        batch = [[i] for i in range(100, 110)]  # lists: extend coerces too
        extended, appended = RecordPage(codec, 64), RecordPage(codec, 64)
        assert extended.capacity < held + len(batch)
        for page in (extended, appended):
            for i in range(held):
                page.append((i,))
        with pytest.raises(PageFormatError, match="page is full"):
            extended.extend(iter(batch))
        with pytest.raises(PageFormatError, match="page is full"):
            for record in batch:
                appended.append(record)
        assert extended.records == appended.records
        assert extended.is_full

    def test_extend_to_exactly_full_is_accepted(self):
        codec = RecordCodec("q")
        page = RecordPage(codec, 64)
        page.extend((i,) for i in range(page.capacity))
        assert page.is_full
        page.extend([])
        with pytest.raises(PageFormatError, match="page is full"):
            page.extend([(0,)])

    def test_next_page_id_roundtrip(self):
        codec = RecordCodec("q")
        page = RecordPage(codec, 128)
        page.next_page_id = 42
        restored = RecordPage.from_bytes(page.to_bytes(), codec, 128)
        assert restored.next_page_id == 42

    def test_no_next_page_roundtrip(self):
        codec = RecordCodec("q")
        page = RecordPage(codec, 128)
        restored = RecordPage.from_bytes(page.to_bytes(), codec, 128)
        assert restored.next_page_id is None

    def test_record_coerced_to_tuple(self):
        codec = RecordCodec("qi")
        page = RecordPage(codec, 128)
        page.append([5, 6])  # list input
        assert page.records[0] == (5, 6)

    def test_wrong_page_type_rejected(self):
        codec = RecordCodec("q")
        blob = BytesPage(128, b"payload")
        with pytest.raises(PageFormatError):
            RecordPage.from_bytes(blob.to_bytes(), codec, 128)


class TestReadSlice:
    CODEC = RecordCodec("qd")

    def image(self, count=9, page_size=256):
        page = RecordPage(self.CODEC, page_size)
        page.extend((i, i / 4) for i in range(count))
        return page.to_bytes().ljust(page_size, b"\0")

    @pytest.mark.parametrize(
        "slot,count", [(0, 9), (0, 3), (4, 2), (9, 0), (3, 0)]
    )
    def test_equals_the_slice_of_a_full_decode(self, slot, count):
        image = self.image()
        full = RecordPage.from_bytes(image, self.CODEC, 256).records
        assert (
            RecordPage.read_slice(image, self.CODEC, 256, slot, count)
            == full[slot:slot + count]
        )

    @pytest.mark.parametrize("slot,count", [(7, 30), (9, 1), (12, 4)])
    def test_slice_past_the_stored_records_is_corruption(self, slot, count):
        # the page holds 9 records: a slice reaching past them is a short
        # page, never a clipped answer
        for keys in (None, {0, 7}):
            with pytest.raises(PageCorruptionError, match="short page") as excinfo:
                RecordPage.read_slice(
                    self.image(), self.CODEC, 256, slot, count, page_id=3, keys=keys
                )
            assert excinfo.value.page_id == 3

    def test_unknown_page_type_is_corruption(self):
        image = b"\x07" + self.image()[1:]
        with pytest.raises(PageCorruptionError, match="unknown page type"):
            RecordPage.read_slice(image, self.CODEC, 256, 0, 1, page_id=5)

    def test_count_beyond_capacity_is_corruption(self):
        image = bytearray(self.image())
        image[2:4] = (self.CODEC.capacity(256) + 1).to_bytes(2, "little")
        with pytest.raises(PageCorruptionError, match="exceeds page capacity"):
            RecordPage.read_slice(bytes(image), self.CODEC, 256, 0, 1)

    def test_wrong_layout_is_a_format_error(self):
        blob = BytesPage(256, b"payload").to_bytes()
        with pytest.raises(PageFormatError, match="expected record page"):
            RecordPage.read_slice(blob, self.CODEC, 256, 0, 1)


class TestBytesPage:
    def test_roundtrip(self):
        page = BytesPage(256, b"node contents")
        restored = BytesPage.from_bytes(page.to_bytes(), 256)
        assert restored.payload == b"node contents"

    def test_empty_payload(self):
        page = BytesPage(256)
        restored = BytesPage.from_bytes(page.to_bytes(), 256)
        assert restored.payload == b""

    def test_oversized_payload_rejected(self):
        page = BytesPage(64, b"z" * 64)
        with pytest.raises(PageFormatError):
            page.to_bytes()

    def test_max_payload_exact_fit(self):
        page = BytesPage(64)
        page.payload = b"y" * page.max_payload
        restored = BytesPage.from_bytes(page.to_bytes(), 64)
        assert restored.payload == page.payload

    def test_wrong_page_type_rejected(self):
        codec = RecordCodec("q")
        record_page = RecordPage(codec, 128)
        with pytest.raises(PageFormatError):
            BytesPage.from_bytes(record_page.to_bytes(), 128)


class TestTreePages:
    """The B+-tree's node pages are a known layout the other decoders refuse."""

    @pytest.fixture(params=["leaf", "internal"])
    def tree_image(self, request):
        from repro.index import BPlusTree
        from repro.storage import BlockDevice, BufferPool

        pool = BufferPool(BlockDevice(page_size=72), capacity=64)
        tree = BPlusTree(pool)
        tree.bulk_load([((k,), k) for k in range(10)])
        if request.param == "leaf":
            leaf_id, _data, _count, _next = tree._find_leaf(None)
            return pool.get(leaf_id)
        return pool.get(tree._root_id)

    def test_record_decoder_refuses_a_tree_page(self, tree_image):
        with pytest.raises(PageFormatError, match="expected record page"):
            RecordPage.from_bytes(tree_image, RecordCodec("q"), 72)
        with pytest.raises(PageFormatError, match="expected record page"):
            RecordPage.read_slice(tree_image, RecordCodec("q"), 72, 0, 1)

    def test_bytes_decoder_refuses_a_tree_page(self, tree_image):
        with pytest.raises(PageFormatError, match="expected bytes page"):
            BytesPage.from_bytes(tree_image, 72)

    def test_a_type_byte_no_layout_writes_is_still_corruption(self):
        image = b"\x05" + BytesPage(72, b"x").to_bytes()[1:]
        with pytest.raises(PageCorruptionError, match="unknown page type"):
            BytesPage.from_bytes(image, 72, page_id=3)
