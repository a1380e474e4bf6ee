/**
 * @file
 * InlineCallback: a move-only, type-erased `void()` callable that
 * stores its target inside the object — never on the heap.
 *
 * std::function is the wrong tool for the event hot path: libstdc++'s
 * small-buffer is 16 bytes, so any capture holding a Message (~80
 * bytes) heap-allocates on schedule() and frees on execute — two
 * malloc-lock round trips per simulated hop. InlineCallback trades
 * generality for a hard guarantee: the capture either fits the inline
 * buffer or the callsite fails to compile (static_assert), so the
 * per-event allocation count is provably zero.
 *
 * Design: a single ops-table pointer (invoke / invoke-once /
 * relocate / destroy) plus an aligned byte buffer. emplace() builds a
 * callable straight in the buffer and invokeOnce() runs and destroys
 * it with one indirect call, which is how EventQueue builds each
 * callback in its event slot and runs it there. Relocate is a
 * move-construct + destroy pair, so moving an InlineCallback moves the
 * capture by value; the event core only does that when a caller hands
 * it an InlineCallback object. The capture type must be
 * nothrow-move-constructible because that move is noexcept.
 */

#ifndef MACROSIM_SIM_INLINE_CALLBACK_HH
#define MACROSIM_SIM_INLINE_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace macrosim
{

class InlineCallback
{
  public:
    /** Inline capture budget. Sized for the fattest in-tree captures,
     *  104 bytes each: the PDES scheduler's PdesApply (a cross-LP
     *  event's apply thunk, target and payload) and a channel FIFO
     *  head ([network, FIFO, Message, leg, argument]; the packets
     *  behind it wait in net/arrival_fifo.hh), with one pointer of
     *  headroom. Grow it if a callsite's static_assert fires — but
     *  measure first; every Slot in the event arena carries this many
     *  bytes. */
    static constexpr std::size_t inlineCapacity = 112;
    static constexpr std::size_t inlineAlign = alignof(std::max_align_t);

    constexpr InlineCallback() noexcept = default;
    constexpr InlineCallback(std::nullptr_t) noexcept {}

    /** Wrap any callable whose state fits the inline buffer. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cv_t<std::remove_reference_t<F>>,
                                  InlineCallback> &&
                  std::is_invocable_r_v<void,
                                        std::remove_reference_t<F> &>>>
    InlineCallback(F &&fn) // NOLINT: implicit by design, mirrors std::function
    {
        construct(std::forward<F>(fn));
    }

    InlineCallback(InlineCallback &&other) noexcept { moveFrom(other); }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineCallback &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    /**
     * Replace the target with @p fn, built in place in the buffer. An
     * InlineCallback argument is moved in instead (one relocation).
     * If building the target throws, this callback is left empty.
     */
    template <typename F>
    void
    emplace(F &&fn)
    {
        if constexpr (std::is_same_v<std::remove_cvref_t<F>,
                                     InlineCallback>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "pass an InlineCallback as an rvalue");
            *this = std::move(fn);
        } else {
            reset();
            construct(std::forward<F>(fn));
        }
    }

    void
    operator()()
    {
        ops_->invoke(buf_);
    }

    /**
     * Invoke the target once, then destroy it, also when it throws:
     * one indirect call for both. The callback reads as empty from
     * the moment the call starts.
     */
    void
    invokeOnce()
    {
        const Ops *ops = ops_;
        ops_ = nullptr;
        ops->invokeOnce(buf_);
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

  private:
    struct Ops
    {
        void (*invoke)(void *self);
        void (*invokeOnce)(void *self);
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <typename Fn>
    static constexpr Ops opsFor = {
        /*invoke=*/[](void *self) { (*static_cast<Fn *>(self))(); },
        /*invokeOnce=*/
        [](void *self) {
            struct Destroy
            {
                Fn *fn;
                ~Destroy() { fn->~Fn(); }
            } target{static_cast<Fn *>(self)};
            (*target.fn)();
        },
        /*relocate=*/
        [](void *dst, void *src) noexcept {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            static_cast<Fn *>(src)->~Fn();
        },
        /*destroy=*/
        [](void *self) noexcept { static_cast<Fn *>(self)->~Fn(); },
    };

    template <typename F>
    void
    construct(F &&fn)
    {
        using Fn = std::remove_cvref_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "InlineCallback target must be callable as void()");
        static_assert(sizeof(Fn) <= inlineCapacity,
                      "capture too large for InlineCallback's inline "
                      "buffer; shrink the capture (index/pointer "
                      "instead of by-value state) or, as a last "
                      "resort, grow inlineCapacity");
        static_assert(alignof(Fn) <= inlineAlign,
                      "capture over-aligned for InlineCallback");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "capture must be nothrow-move-constructible");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
        ops_ = &opsFor<Fn>;
    }

    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    void
    moveFrom(InlineCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    alignas(inlineAlign) std::byte buf_[inlineCapacity];
    const Ops *ops_ = nullptr;
};

} // namespace macrosim

#endif // MACROSIM_SIM_INLINE_CALLBACK_HH
