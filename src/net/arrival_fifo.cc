#include "net/arrival_fifo.hh"

#include <limits>

#include "sim/logging.hh"

namespace macrosim
{

ArrivalFifos::~ArrivalFifos()
{
    std::allocator<Arrival> alloc;
    for (Arrival *chunk : chunks_)
        alloc.deallocate(chunk, cellsPerChunk);
}

void
ArrivalFifos::grow()
{
    if (used_ > std::numeric_limits<std::uint32_t>::max() - cellsPerChunk)
        panic("ArrivalFifos: pool overflow (", used_, " queued arrivals)");
    // Make room first, so the push cannot throw and leak the chunk.
    // The chunk stays raw until push() builds each cell.
    if (chunks_.size() == chunks_.capacity())
        chunks_.reserve(2 * chunks_.size() + 1);
    chunks_.push_back(std::allocator<Arrival>().allocate(cellsPerChunk));
}

void
ArrivalFifos::orderPanic(std::uint32_t fifo, Tick when) const
{
    panic("ArrivalFifos: arrival at tick ", when, " on FIFO ", fifo,
          " is earlier than its tail at tick ",
          cell(fifos_[fifo].tail).when);
}

void
ArrivalFifos::argPanic(std::uint32_t arg)
{
    panic("ArrivalFifos: leg argument ", arg, " exceeds ", maxArg);
}

} // namespace macrosim
