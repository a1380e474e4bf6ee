#include "workloads/coherence.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace macrosim
{

CoherenceEngine::CoherenceEngine(Simulator &sim, Network &net,
                                 bool directory_mode)
    : sim_(sim), net_(net), directoryMode_(directory_mode),
      directoryLatency_(net.config().directoryLatency),
      memoryLatency_(net.config().memoryLatency),
      lineBytes_(net.config().cacheLineBytes)
{
    const auto sites = net_.config().siteCount();
    // One line transfer occupies a fiber memory channel for
    // lineBytes / channel bandwidth (3.2 ns at 64 B and 20 GB/s).
    memoryOccupancy_ = nsToTicks(
        static_cast<double>(lineBytes_)
        / net_.config().memoryPortBytesPerNs);
    memoryChannels_.resize(net_.config().memoryPortCount());
    // Reserve the hot-path tables up front so steady-state traffic
    // never rehashes (see flat_map.hh's contract).
    txns_.reserve(1024);
    lineLocks_.reserve(1024);
    outstanding_.reserve(1024);
    for (SiteId s = 0; s < sites; ++s) {
        net_.setDeliveryHandler(s, [this](const Message &m) {
            onDelivery(m);
        });
    }
    if (directoryMode_) {
        l2s_.reserve(sites);
        dirs_.reserve(sites);
        for (SiteId s = 0; s < sites; ++s) {
            l2s_.push_back(std::make_unique<SetAssocCache>(
                net_.config().l2CacheBytes,
                net_.config().l2Associativity, lineBytes_));
            dirs_.push_back(std::make_unique<Directory>(sites));
        }
    }
    registerTelemetry();
}

void
CoherenceEngine::registerTelemetry()
{
    StatScope arch(sim_.telemetry(),
                   sim_.telemetry().uniquePrefix("arch"));
    arch.add("txn.started", [this] {
        return static_cast<double>(started_);
    });
    arch.add("txn.completed", [this] {
        return static_cast<double>(completed_);
    });
    arch.add("txn.in_flight", [this] {
        return static_cast<double>(inFlight());
    });
    arch.add("txn.messages", [this] {
        return static_cast<double>(messagesSent_);
    });
    arch.add("txn.writebacks", [this] {
        return static_cast<double>(writebacks_);
    });
    arch.add("txn.coalesced", [this] {
        return static_cast<double>(coalesced_);
    });
    arch.add("txn.retries", [this] {
        return static_cast<double>(txnRetries_);
    });
    arch.add("txn.aborted", [this] {
        return static_cast<double>(aborted_);
    });
    arch.add("txn.stale_acks", [this] {
        return static_cast<double>(staleAcks_);
    });
    arch.addMean("txn.latency_ns", opLatency_);
    if (!directoryMode_)
        return;
    for (SiteId s = 0; s < net_.config().siteCount(); ++s) {
        const StatScope site =
            arch.scope("site" + std::to_string(s));
        const SetAssocCache *l2 = l2s_[s].get();
        site.add("l2.hits", [l2] {
            return static_cast<double>(l2->hits());
        });
        site.add("l2.misses", [l2] {
            return static_cast<double>(l2->misses());
        });
        const Directory *dir = dirs_[s].get();
        site.add("dir.tracked_lines", [dir] {
            return static_cast<double>(dir->trackedLines());
        });
    }
}

CoherenceEngine::Txn *
CoherenceEngine::findTxn(TxnId id)
{
    auto it = txns_.find(id);
    return it == txns_.end() ? nullptr : &txnPool_[it->second];
}

CoherenceEngine::Txn &
CoherenceEngine::allocTxn()
{
    std::uint32_t idx;
    if (!txnFree_.empty()) {
        idx = txnFree_.back();
        txnFree_.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(txnPool_.size());
        txnPool_.emplace_back();
    }
    Txn &txn = txnPool_[idx];
    txn.poolIndex = idx;
    return txn;
}

void
CoherenceEngine::releaseTxn(TxnId id)
{
    auto it = txns_.find(id);
    if (it == txns_.end())
        return;
    const std::uint32_t idx = it->second;
    txns_.erase(it);
    // Scrub back to the default state, keeping the vectors' capacity
    // (clear(), not shrink) so the recycled record issues without
    // touching the heap.
    Txn &txn = txnPool_[idx];
    txn.id = 0;
    txn.requester = 0;
    txn.home = 0;
    txn.op = CoherenceOp::GetS;
    txn.line = 0;
    txn.needsData = true;
    txn.dataReceived = false;
    txn.pendingAcks = 0;
    txn.expanded = false;
    txn.start = 0;
    txn.installState = CacheState::Shared;
    txn.sharers.clear();
    txn.done = nullptr;
    txn.coalescedDone.clear();
    txn.attempts = 0;
    txn.retryEvent = invalidEventId;
    txnFree_.push_back(idx);
}

void
CoherenceEngine::send(SiteId src, SiteId dst, CoherenceMsg type,
                      std::uint32_t bytes, TxnId txn)
{
    Message m;
    m.src = src;
    m.dst = dst;
    m.type = type;
    m.bytes = bytes;
    m.txn = txn;
    switch (type) {
      case CoherenceMsg::Request:
      case CoherenceMsg::FwdRequest:
      case CoherenceMsg::Invalidate:
        m.cls = MsgClass::Request;
        break;
      case CoherenceMsg::Data:
        m.cls = MsgClass::Data;
        break;
      default:
        m.cls = MsgClass::Response;
        break;
    }
    ++messagesSent_;
    net_.inject(std::move(m));
}

TxnId
CoherenceEngine::startSynthetic(SiteId requester, SiteId home,
                                CoherenceOp op,
                                const std::vector<SiteId> &sharers,
                                CompletionFn done)
{
    if (directoryMode_)
        panic("startSynthetic called on a directory-mode engine");
    Txn &txn = allocTxn();
    txn.id = nextTxn_++;
    txn.requester = requester;
    txn.home = home;
    txn.op = op;
    txn.sharers = sharers; // copy-assign reuses the pooled capacity
    txn.needsData = (op == CoherenceOp::GetS || op == CoherenceOp::GetM);
    txn.start = sim_.now();
    txn.done = std::move(done);
    const TxnId id = txn.id;
    txns_.try_emplace(id, txn.poolIndex);
    ++started_;

    sendRequest(txn);
    armTimeout(txn);
    return id;
}

void
CoherenceEngine::sendRequest(const Txn &txn)
{
    const std::uint32_t req_bytes =
        (txn.op == CoherenceOp::PutM) ? dataMessageBytes
                                      : controlMessageBytes;
    send(txn.requester, txn.home, CoherenceMsg::Request, req_bytes,
         txn.id);
}

void
CoherenceEngine::armTimeout(Txn &txn)
{
    if (!resilience_.enabled || resilience_.timeout == 0)
        return;
    const Tick wait = resilience_.timeout << txn.attempts;
    const TxnId id = txn.id;
    txn.retryEvent = sim_.events().scheduleAfter(
        wait, [this, id] { onTimeout(id); }, "arch.txn_timeout");
}

void
CoherenceEngine::onTimeout(TxnId id)
{
    Txn *found = findTxn(id);
    if (!found)
        return;
    Txn &txn = *found;
    txn.retryEvent = invalidEventId;
    if (txn.attempts >= resilience_.maxRetries) {
        abortTxn(txn);
        return;
    }
    // Reset to pre-expansion state and re-issue the request. The
    // home re-expands it (its line lock recognises the holder's own
    // retry); responses already in flight from the slow first
    // attempt are tolerated as stale.
    ++txn.attempts;
    ++txnRetries_;
    txn.expanded = false;
    txn.dataReceived = false;
    txn.pendingAcks = 0;
    sendRequest(txn);
    armTimeout(txn);
}

void
CoherenceEngine::abortTxn(Txn &txn)
{
    ++aborted_;
    const Tick latency = sim_.now() - txn.start;
    CompletionFn done = std::move(txn.done);
    std::vector<CompletionFn> coalesced = std::move(txn.coalescedDone);
    const TxnId id = txn.id;
    const Addr line = txn.line;
    const SiteId requester = txn.requester;
    releaseTxn(id);

    if (directoryMode_) {
        const std::uint64_t key = outstandingKey(requester, line);
        if (auto out = outstanding_.find(key);
            out != outstanding_.end() && out->second == id) {
            outstanding_.erase(out);
        }
        releaseLineLock(line, id);
    }

    // Completion callbacks still fire so closed-loop drivers drain;
    // the abort is visible through abortedTransactions() and the
    // "arch.txn.aborted" stat rather than a hang.
    if (done)
        done(id, latency);
    for (CompletionFn &fn : coalesced) {
        if (fn)
            fn(id, latency);
    }
}

void
CoherenceEngine::releaseLineLock(Addr line, TxnId id)
{
    auto it = lineLocks_.find(line);
    if (it == lineLocks_.end())
        return;
    LineLock &lock = it->second;
    if (lock.holder != id) {
        // Aborted while still queued behind another holder.
        auto w = std::find(lock.waiters.begin(), lock.waiters.end(),
                           id);
        if (w != lock.waiters.end())
            lock.waiters.erase(w);
        return;
    }
    if (lock.waiters.empty()) {
        lineLocks_.erase(it);
    } else {
        const TxnId next = lock.waiters.front();
        lock.waiters.erase(lock.waiters.begin());
        lock.holder = next;
        scheduleExpansion(next);
    }
}

std::optional<TxnId>
CoherenceEngine::startAccess(SiteId site, Addr addr, MemOp op,
                             CompletionFn done)
{
    if (!directoryMode_)
        panic("startAccess called on a synthetic-mode engine");
    const Addr line = addr / lineBytes_ * lineBytes_;
    SetAssocCache &l2 = *l2s_[site];

    CoherenceOp coherence_op;
    if (const auto state = l2.probe(line); state.has_value()) {
        if (op == MemOp::Read) {
            l2.touch(line);
            return std::nullopt;
        }
        // Write hit paths.
        if (*state == CacheState::Modified) {
            l2.touch(line);
            return std::nullopt;
        }
        if (*state == CacheState::Exclusive) {
            // Silent E -> M upgrade.
            l2.touch(line);
            l2.setState(line, CacheState::Modified);
            return std::nullopt;
        }
        // Shared or Owned: ownership upgrade via the directory.
        coherence_op = CoherenceOp::Upgrade;
    } else {
        coherence_op = (op == MemOp::Read) ? CoherenceOp::GetS
                                           : CoherenceOp::GetM;
    }
    // Every access past the hit paths is one L2 miss: it coalesces
    // onto an outstanding fetch or starts a transaction below.
    l2.recordMiss();

    // MSHR coalescing: attach to an outstanding fetch of the same
    // line when its permission suffices for this access.
    const std::uint64_t key = outstandingKey(site, line);
    if (auto out = outstanding_.find(key); out != outstanding_.end()) {
        if (Txn *pending_txn = findTxn(out->second)) {
            Txn &pending = *pending_txn;
            const bool strong_enough =
                op == MemOp::Read
                || pending.op == CoherenceOp::GetM
                || pending.op == CoherenceOp::Upgrade;
            if (strong_enough) {
                ++coalesced_;
                if (done)
                    pending.coalescedDone.push_back(std::move(done));
                return pending.id;
            }
        }
    }

    Txn &txn = allocTxn();
    txn.id = nextTxn_++;
    txn.requester = site;
    txn.home = dirs_[0]->homeSite(line, lineBytes_);
    txn.op = coherence_op;
    txn.line = line;
    txn.needsData = (coherence_op != CoherenceOp::Upgrade);
    txn.start = sim_.now();
    txn.done = std::move(done);
    const TxnId id = txn.id;
    txns_.try_emplace(id, txn.poolIndex);
    ++started_;
    outstanding_[key] = id;

    sendRequest(txn);
    armTimeout(txn);
    return id;
}

void
CoherenceEngine::replyFromMemory(SiteId home, SiteId requester,
                                 TxnId txn)
{
    // Claim the least-loaded of the home's fiber memory channels
    // (balanced placement: memoryPortsAt() ports starting at
    // memoryPortBase()), then pay the flat access latency on top of
    // the transfer slot. A home with no port of its own — possible
    // when a fixed edge-fiber budget is spread over more sites than
    // ports — pays only the flat latency, modelling a remote
    // edge-fiber reached over already-simulated network hops.
    const std::uint32_t ports = net_.config().memoryPortsAt(home);
    Tick data_ready = sim_.now() + memoryLatency_;
    if (ports > 0) {
        const std::size_t base = net_.config().memoryPortBase(home);
        std::size_t port = base;
        for (std::size_t p = base + 1; p < base + ports; ++p) {
            if (memoryChannels_[p].busyUntil()
                < memoryChannels_[port].busyUntil())
                port = p;
        }
        const Tick start = memoryChannels_[port].reserve(
            sim_.now(), memoryOccupancy_);
        data_ready = start + memoryOccupancy_ + memoryLatency_;
    }
    sim_.events().schedule(data_ready, [this, home, requester, txn] {
        send(home, requester, CoherenceMsg::Data, dataMessageBytes,
             txn);
    }, "arch.memory");
}

void
CoherenceEngine::onDelivery(const Message &msg)
{
    switch (msg.type) {
      case CoherenceMsg::Request:
        onRequestAtHome(msg);
        break;
      case CoherenceMsg::FwdRequest:
        onFwdAtOwner(msg);
        break;
      case CoherenceMsg::Invalidate:
        onInvalidateAtSharer(msg);
        break;
      case CoherenceMsg::Data:
        onDataAtRequester(msg);
        break;
      case CoherenceMsg::InvAck:
      case CoherenceMsg::WritebackAck:
        onAckAtRequester(msg);
        break;
    }
}

void
CoherenceEngine::onRequestAtHome(const Message &msg)
{
    if (directoryMode_) {
        // Per-line serialization at the home: if another transaction
        // on this line is outstanding, this request waits its turn —
        // the classic directory mechanism that preserves the
        // single-writer invariant under races.
        Txn *txn = findTxn(msg.txn);
        if (!txn)
            return;
        const Addr line = txn->line;
        auto [lock_it, inserted] = lineLocks_.try_emplace(line);
        if (inserted) {
            lock_it->second.holder = msg.txn;
        } else if (lock_it->second.holder != msg.txn) {
            // Queue behind the current holder — once per txn, so a
            // retried duplicate of a waiter doesn't enqueue twice.
            auto &w = lock_it->second.waiters;
            if (std::find(w.begin(), w.end(), msg.txn) == w.end())
                w.push_back(msg.txn);
            return;
        }
        // The holder's own re-sent request (a resilience retry)
        // falls through to re-expansion.
    }
    scheduleExpansion(msg.txn);
}

void
CoherenceEngine::scheduleExpansion(TxnId id)
{
    // The home performs a directory/L2 lookup before acting.
    sim_.events().scheduleAfter(directoryLatency_, [this, id] {
        Txn *txn = findTxn(id);
        if (!txn)
            return;
        if (directoryMode_)
            expandDirectory(*txn);
        else
            expandSynthetic(*txn);
    }, "arch.dir_lookup");
}

void
CoherenceEngine::expandSynthetic(Txn &txn)
{
    txn.expanded = true;
    switch (txn.op) {
      case CoherenceOp::GetS:
        if (txn.sharers.empty()) {
            // No on-chip copy: fetch from the home's fiber-attached
            // memory, then reply with data.
            replyFromMemory(txn.home, txn.requester, txn.id);
        } else {
            // The first sharer is the owner and forwards the line.
            send(txn.home, txn.sharers.front(),
                 CoherenceMsg::FwdRequest, controlMessageBytes,
                 txn.id);
        }
        break;

      case CoherenceOp::GetM:
        if (txn.sharers.empty()) {
            replyFromMemory(txn.home, txn.requester, txn.id);
        } else {
            // Owner forwards data; the remaining sharers are
            // invalidated and ack directly to the requester.
            send(txn.home, txn.sharers.front(),
                 CoherenceMsg::FwdRequest, controlMessageBytes,
                 txn.id);
            txn.pendingAcks =
                static_cast<std::uint32_t>(txn.sharers.size()) - 1;
            for (std::size_t i = 1; i < txn.sharers.size(); ++i) {
                send(txn.home, txn.sharers[i],
                     CoherenceMsg::Invalidate, controlMessageBytes,
                     txn.id);
            }
        }
        break;

      case CoherenceOp::Upgrade:
        // Grant ownership; invalidate every sharer.
        txn.pendingAcks =
            static_cast<std::uint32_t>(txn.sharers.size());
        for (const SiteId s : txn.sharers) {
            send(txn.home, s, CoherenceMsg::Invalidate,
                 controlMessageBytes, txn.id);
        }
        send(txn.home, txn.requester, CoherenceMsg::WritebackAck,
             controlMessageBytes, txn.id);
        break;

      case CoherenceOp::PutM:
        send(txn.home, txn.requester, CoherenceMsg::WritebackAck,
             controlMessageBytes, txn.id);
        break;
    }
    maybeComplete(txn);
}

void
CoherenceEngine::expandDirectory(Txn &txn)
{
    txn.expanded = true;
    Directory &dir = *dirs_[txn.home];
    DirEntry &e = dir.entry(txn.line);

    auto reply_from_memory = [&] {
        replyFromMemory(txn.home, txn.requester, txn.id);
    };

    switch (txn.op) {
      case CoherenceOp::GetS:
        switch (e.state) {
          case DirState::Uncached:
            // Sole copy: grant Exclusive so later writes upgrade
            // silently (the MOESI E optimization).
            reply_from_memory();
            txn.installState = CacheState::Exclusive;
            e.state = DirState::Exclusive;
            e.owner = txn.requester;
            e.sharers.clear();
            break;
          case DirState::Shared:
            // Memory (reachable behind the home) is up to date; the
            // directory lookup latency already covers the access.
            send(txn.home, txn.requester, CoherenceMsg::Data,
                 dataMessageBytes, txn.id);
            txn.installState = CacheState::Shared;
            e.sharers.add(txn.requester);
            break;
          case DirState::Exclusive:
          case DirState::Owned:
            // Forward to the owner, which is demoted (O if dirty,
            // S if clean) and supplies the line.
            send(txn.home, e.owner, CoherenceMsg::FwdRequest,
                 controlMessageBytes, txn.id);
            txn.installState = CacheState::Shared;
            e.state = DirState::Owned;
            e.sharers.add(txn.requester);
            break;
        }
        break;

      case CoherenceOp::GetM: {
        std::vector<SiteId> to_invalidate;
        for (const SiteId s : e.sharers.members()) {
            if (s != txn.requester)
                to_invalidate.push_back(s);
        }
        const bool owner_valid = (e.state == DirState::Exclusive
                                  || e.state == DirState::Owned)
            && e.owner != txn.requester;
        if (owner_valid) {
            send(txn.home, e.owner, CoherenceMsg::FwdRequest,
                 controlMessageBytes, txn.id);
        } else if (e.state == DirState::Uncached) {
            reply_from_memory();
        } else {
            send(txn.home, txn.requester, CoherenceMsg::Data,
                 dataMessageBytes, txn.id);
        }
        txn.pendingAcks =
            static_cast<std::uint32_t>(to_invalidate.size());
        for (const SiteId s : to_invalidate) {
            send(txn.home, s, CoherenceMsg::Invalidate,
                 controlMessageBytes, txn.id);
        }
        e.state = DirState::Exclusive;
        e.owner = txn.requester;
        e.sharers.clear();
        break;
      }

      case CoherenceOp::Upgrade: {
        std::vector<SiteId> to_invalidate;
        for (const SiteId s : e.sharers.members()) {
            if (s != txn.requester)
                to_invalidate.push_back(s);
        }
        if ((e.state == DirState::Owned
             || e.state == DirState::Exclusive)
            && e.owner != txn.requester) {
            to_invalidate.push_back(e.owner);
        }
        txn.pendingAcks =
            static_cast<std::uint32_t>(to_invalidate.size());
        for (const SiteId s : to_invalidate) {
            send(txn.home, s, CoherenceMsg::Invalidate,
                 controlMessageBytes, txn.id);
        }
        send(txn.home, txn.requester, CoherenceMsg::WritebackAck,
             controlMessageBytes, txn.id);
        e.state = DirState::Exclusive;
        e.owner = txn.requester;
        e.sharers.clear();
        break;
      }

      case CoherenceOp::PutM:
        if ((e.state == DirState::Exclusive
             || e.state == DirState::Owned)
            && e.owner == txn.requester) {
            e.state = e.sharers.empty() ? DirState::Uncached
                                        : DirState::Shared;
        }
        send(txn.home, txn.requester, CoherenceMsg::WritebackAck,
             controlMessageBytes, txn.id);
        // A line written back with no sharers is Uncached — exactly
        // what an absent entry decodes to, so drop it instead of
        // letting dead entries accumulate. `e` is dangling after
        // this; the case must not touch it again.
        dir.reclaim(txn.line);
        break;
    }
    maybeComplete(txn);
}

void
CoherenceEngine::onFwdAtOwner(const Message &msg)
{
    Txn *found = findTxn(msg.txn);
    if (!found)
        return;
    Txn &txn = *found;
    const SiteId owner = msg.dst;
    if (directoryMode_) {
        SetAssocCache &l2 = *l2s_[owner];
        if (txn.op == CoherenceOp::GetM) {
            l2.invalidate(txn.line);
        } else if (const auto st = l2.probe(txn.line);
                   st.has_value()) {
            // Dirty owners keep responsibility for the line (O);
            // a clean Exclusive owner demotes to Shared so it can
            // no longer upgrade silently.
            l2.setState(txn.line, isDirty(*st) ? CacheState::Owned
                                               : CacheState::Shared);
        }
    }
    send(owner, txn.requester, CoherenceMsg::Data, dataMessageBytes,
         txn.id);
}

void
CoherenceEngine::onInvalidateAtSharer(const Message &msg)
{
    Txn *found = findTxn(msg.txn);
    if (!found)
        return;
    Txn &txn = *found;
    const SiteId sharer = msg.dst;
    if (directoryMode_)
        l2s_[sharer]->invalidate(txn.line);
    send(sharer, txn.requester, CoherenceMsg::InvAck,
         controlMessageBytes, txn.id);
}

void
CoherenceEngine::onDataAtRequester(const Message &msg)
{
    Txn *found = findTxn(msg.txn);
    if (!found)
        return;
    Txn &txn = *found;
    txn.dataReceived = true;
    if (directoryMode_) {
        const CacheState install =
            (txn.op == CoherenceOp::GetM) ? CacheState::Modified
                                          : txn.installState;
        installLine(txn.requester, txn.line, install);
    }
    maybeComplete(txn);
}

void
CoherenceEngine::onAckAtRequester(const Message &msg)
{
    Txn *found = findTxn(msg.txn);
    if (!found)
        return;
    Txn &txn = *found;
    if (msg.type == CoherenceMsg::WritebackAck) {
        // Upgrade grant or writeback completion.
        txn.dataReceived = true;
        if (directoryMode_ && txn.op == CoherenceOp::Upgrade)
            l2s_[txn.requester]->setState(txn.line,
                                          CacheState::Modified);
    } else {
        if (txn.pendingAcks == 0) {
            if (resilience_.enabled) {
                // A retry reset the ack count while this ack was in
                // flight from the slow first attempt; tolerate it.
                ++staleAcks_;
                return;
            }
            panic("CoherenceEngine: unexpected InvAck for txn ",
                  txn.id);
        }
        --txn.pendingAcks;
    }
    maybeComplete(txn);
}

void
CoherenceEngine::maybeComplete(Txn &txn)
{
    if (!txn.expanded || txn.pendingAcks != 0)
        return;
    if (txn.needsData || txn.op == CoherenceOp::Upgrade
        || txn.op == CoherenceOp::PutM) {
        if (!txn.dataReceived)
            return;
    }
    const Tick latency = sim_.now() - txn.start;
    opLatency_.sample(ticksToNs(latency));
    ++completed_;
    if (txn.retryEvent != invalidEventId) {
        sim_.events().cancel(txn.retryEvent);
        txn.retryEvent = invalidEventId;
    }
    CompletionFn done = std::move(txn.done);
    std::vector<CompletionFn> coalesced =
        std::move(txn.coalescedDone);
    const TxnId id = txn.id;
    const Addr line = txn.line;
    const SiteId requester = txn.requester;
    releaseTxn(id);

    if (directoryMode_) {
        // Retire this site's MSHR entry for the line, unless a newer
        // transaction has superseded it.
        const std::uint64_t key = outstandingKey(requester, line);
        if (auto it = outstanding_.find(key);
            it != outstanding_.end() && it->second == id) {
            outstanding_.erase(it);
        }

        // Release the home's line lock; admit the next waiting
        // transaction on this line, if any.
        releaseLineLock(line, id);
    }

    if (done)
        done(id, latency);
    for (CompletionFn &fn : coalesced) {
        if (fn)
            fn(id, latency);
    }
}

void
CoherenceEngine::installLine(SiteId site, Addr line, CacheState state)
{
    const auto result = l2s_[site]->install(line, state);
    if (result.writeback.has_value()) {
        ++writebacks_;
        // Dirty eviction: fire-and-forget PutM carrying the line to
        // its own home. (The caller may hold a Txn& — the pool is a
        // deque precisely so this allocation cannot invalidate it.)
        Txn &txn = allocTxn();
        txn.id = nextTxn_++;
        txn.requester = site;
        txn.home = dirs_[0]->homeSite(*result.writeback, lineBytes_);
        txn.op = CoherenceOp::PutM;
        txn.line = *result.writeback;
        txn.needsData = false;
        txn.start = sim_.now();
        txns_.try_emplace(txn.id, txn.poolIndex);
        ++started_;
        sendRequest(txn);
        armTimeout(txn);
    }
}

} // namespace macrosim
