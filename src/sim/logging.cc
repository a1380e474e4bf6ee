#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace macrosim
{

namespace
{
// Atomic: sweep worker threads warn concurrently.
std::atomic<bool> quietFlag{false};
std::atomic<std::uint64_t> warnCount{0};

// Worker threads emit progress concurrently; one line at a time.
std::mutex statusMutex;
} // namespace

void
statusLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(statusMutex);
    std::fprintf(stderr, "%s\n", line.c_str());
}

void
setQuiet(bool q)
{
    quietFlag.store(q, std::memory_order_relaxed);
}

bool
quiet()
{
    return quietFlag.load(std::memory_order_relaxed);
}

std::uint64_t
warningsIssued()
{
    return warnCount.load(std::memory_order_relaxed);
}

namespace detail
{

void
panicImpl(const char *, int, const std::string &msg)
{
    std::cerr << "panic: " << msg << std::endl;
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    throw FatalError(msg);
}

void
warnImpl(const std::string &msg)
{
    warnCount.fetch_add(1, std::memory_order_relaxed);
    if (!quiet())
        std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    if (!quiet())
        std::cerr << "info: " << msg << std::endl;
}

} // namespace detail

} // namespace macrosim
