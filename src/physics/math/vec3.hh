/**
 * @file
 * Three-component vector used throughout the physics engine.
 */

#ifndef PARALLAX_PHYSICS_MATH_VEC3_HH
#define PARALLAX_PHYSICS_MATH_VEC3_HH

#include <cmath>

namespace parallax
{

/** Scalar type used by the physics engine. */
using Real = double;

/** A 3-vector of Real with the usual arithmetic. */
struct Vec3
{
    Real x = 0.0;
    Real y = 0.0;
    Real z = 0.0;

    constexpr Vec3() = default;
    constexpr Vec3(Real x_, Real y_, Real z_) : x(x_), y(y_), z(z_) {}

    constexpr Vec3 operator+(const Vec3 &o) const
    { return {x + o.x, y + o.y, z + o.z}; }
    constexpr Vec3 operator-(const Vec3 &o) const
    { return {x - o.x, y - o.y, z - o.z}; }
    constexpr Vec3 operator-() const { return {-x, -y, -z}; }
    constexpr Vec3 operator*(Real s) const { return {x * s, y * s, z * s}; }
    constexpr Vec3 operator/(Real s) const { return {x / s, y / s, z / s}; }

    Vec3 &operator+=(const Vec3 &o)
    { x += o.x; y += o.y; z += o.z; return *this; }
    Vec3 &operator-=(const Vec3 &o)
    { x -= o.x; y -= o.y; z -= o.z; return *this; }
    Vec3 &operator*=(Real s) { x *= s; y *= s; z *= s; return *this; }

    constexpr bool operator==(const Vec3 &o) const
    { return x == o.x && y == o.y && z == o.z; }

    /** Component access by index (0..2). */
    Real
    operator[](int i) const
    {
        return i == 0 ? x : (i == 1 ? y : z);
    }

    Real &
    operator[](int i)
    {
        return i == 0 ? x : (i == 1 ? y : z);
    }

    constexpr Real dot(const Vec3 &o) const
    { return x * o.x + y * o.y + z * o.z; }

    constexpr Vec3
    cross(const Vec3 &o) const
    {
        return {y * o.z - z * o.y,
                z * o.x - x * o.z,
                x * o.y - y * o.x};
    }

    constexpr Real lengthSquared() const { return dot(*this); }
    Real length() const { return std::sqrt(lengthSquared()); }

    /** Return a unit vector; returns zero vector if length is ~0. */
    Vec3
    normalized() const
    {
        const Real len = length();
        if (len < 1e-12)
            return {};
        return *this / len;
    }

    /** Component-wise minimum. */
    static constexpr Vec3
    min(const Vec3 &a, const Vec3 &b)
    {
        return {a.x < b.x ? a.x : b.x,
                a.y < b.y ? a.y : b.y,
                a.z < b.z ? a.z : b.z};
    }

    /** Component-wise maximum. */
    static constexpr Vec3
    max(const Vec3 &a, const Vec3 &b)
    {
        return {a.x > b.x ? a.x : b.x,
                a.y > b.y ? a.y : b.y,
                a.z > b.z ? a.z : b.z};
    }
};

constexpr Vec3
operator*(Real s, const Vec3 &v)
{
    return v * s;
}

/** True when no component is NaN or infinite. */
inline bool
finite(const Vec3 &v)
{
    return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

} // namespace parallax

#endif // PARALLAX_PHYSICS_MATH_VEC3_HH
