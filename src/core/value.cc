#include "core/value.hh"

#include <sstream>

#include "support/error.hh"
#include "support/framepool.hh"

namespace step {

void
SelectorIndices::spill(const uint32_t* first, size_t n)
{
    auto* b = new (::operator new(sizeof(Block) + n * sizeof(uint32_t)))
        Block();
    std::copy(first, first + n, b->indices());
    rep_.block = b;
    rep_.n = static_cast<uint32_t>(n);
}

void
SelectorIndices::freeBlock(Block* b) noexcept
{
    b->~Block();
    ::operator delete(b);
}

bool
SelectorIndices::operator==(const SelectorIndices& o) const
{
    return std::equal(begin(), end(), o.begin(), o.end());
}

TupleVal::Block*
TupleVal::allocBlock(size_t n)
{
    static_assert(sizeof(Block) % alignof(Value) == 0,
                  "tuple elements must follow the header aligned");
    return new (FramePool::allocate(sizeof(Block) + n * sizeof(Value)))
        Block();
}

void
TupleVal::freeBlock(Block* b) noexcept
{
    Value* e = b->elems();
    for (uint32_t i = 0; i < b->n; ++i)
        e[i].~Value();
    b->~Block();
    FramePool::deallocate(b);
}

void
Value::retainBlock() const noexcept
{
    switch (kind_) {
    case Kind::Tile:      tile_.retain(); break;
    case Kind::Selector:  sel_.indices.retain(); break;
    case Kind::Tuple:     tup_.retain(); break;
    case Kind::BufferRef: break;
    }
}

void
Value::releaseBlock() noexcept
{
    switch (kind_) {
    case Kind::Tile:      tile_.~Tile(); break;
    case Kind::Selector:  sel_.~Selector(); break;
    case Kind::Tuple:     tup_.~TupleVal(); break;
    case Kind::BufferRef: break;
    }
}

Value
Value::tuple(std::initializer_list<Value> elems)
{
    return TupleVal::make(elems.size(), [&](size_t i) -> const Value& {
        return elems.begin()[i];
    });
}

std::string
Value::toString() const
{
    std::ostringstream os;
    if (isTile()) {
        const Tile& t = tile();
        os << "Tile[" << t.rows() << "x" << t.cols() << "]";
        if (t.hasData() && t.numel() <= 4) {
            os << "{";
            for (int64_t i = 0; i < t.rows(); ++i)
                for (int64_t j = 0; j < t.cols(); ++j)
                    os << (i + j ? "," : "") << t.at(i, j);
            os << "}";
        }
    } else if (isSelector()) {
        os << "Sel(";
        for (size_t i = 0; i < selector().indices.size(); ++i)
            os << (i ? "," : "") << selector().indices[i];
        os << ")";
    } else if (isBufferRef()) {
        os << "Buf#" << bufferRef().id;
    } else {
        os << "Tuple(";
        for (size_t i = 0; i < tupleElems().size(); ++i)
            os << (i ? "," : "") << tupleElems()[i].toString();
        os << ")";
    }
    return os.str();
}

} // namespace step
